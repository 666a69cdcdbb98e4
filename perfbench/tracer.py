"""Span tracing from outside the engine: wrappers around gemfilter's functions.

The tracer replaces each target function with a wrapper that records a span
``(name, start, end, parent, request, detail)``.  A module that imported a
function by name (``from .kernels import matmul``) holds its own binding, so
every gemfilter module attribute bound to a target is patched, and the
original restored afterwards.  Spans stay in memory until the benchmark
writes them out; a span's self time is its duration minus its children's.

Targets that a later version of the engine no longer has are skipped and
listed in :attr:`Tracer.missing`; their metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  Two targets may share a span name.
TARGETS = (
    ("runner.run_generation", "gemfilter.runner", "run_generation"),
    ("kernels.matmul", "gemfilter.kernels", "matmul"),
    ("kernels.rms_norm_rows", "gemfilter.kernels", "rms_norm_rows"),
    ("kernels.topk_indices", "gemfilter.kernels", "topk_indices"),
    ("kernels.pool_1d", "gemfilter.kernels", "pool_1d"),
    ("model.prefill", "gemfilter.model", "prefill"),
    ("model.run_layer", "gemfilter.model", "run_layer"),
    ("model.apply_rope", "gemfilter.model", "apply_rope"),
    ("model.decode_step", "gemfilter.model", "decode_step"),
    ("model.greedy_generate", "gemfilter.model", "greedy_generate"),
    ("model.LayerKV.append", "gemfilter.model", "LayerKV.append"),
    ("strategies.compressed_prefill", "gemfilter.strategies", "compressed_prefill"),
    ("strategies.decode_with_compressed", "gemfilter.strategies", "decode_with_compressed"),
    ("strategies.CompressedLayerKV.append", "gemfilter.strategies", "CompressedLayerKV.append"),
    ("strategies.retained_indices", "gemfilter.strategies", "snapkv_retained_indices"),
    ("strategies.retained_indices", "gemfilter.strategies", "h2o_retained_indices"),
    ("selection.select_indices", "gemfilter.selection", "select_indices"),
    ("selection.selection_scores", "gemfilter.selection", "selection_scores"),
    ("modelio.load_model", "gemfilter.modelio", "load_model"),
    ("testmodels.make_model", "gemfilter.testmodels", "make_random_model"),
    ("testmodels.make_model", "gemfilter.testmodels", "make_copy_model"),
    ("costmodel.verify_counters", "gemfilter.costmodel", "verify_counters"),
)


def _matmul_tag(args, kwargs, result):
    return kwargs.get("tag", args[2] if len(args) > 2 else "other")


def _retained_sizes(args, kwargs, result):
    """(entries kept, entries scored) for one kv-head of one layer."""
    return (len(result), len(args[0]))


DETAILS = {"kernels.matmul": _matmul_tag, "strategies.retained_indices": _retained_sizes}


def attribute_snapshot() -> dict:
    """Every attribute of every loaded gemfilter module and of its classes."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gemfilter" or mod_name.startswith("gemfilter.")):
            continue
        for attr, value in vars(mod).items():
            snap[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    snap[(mod_name, f"{attr}.{cattr}")] = cvalue
    return snap


def changed_attributes(before: dict) -> list:
    """Keys whose object is no longer the one recorded in ``before``."""
    after = attribute_snapshot()
    keys = set(before) | set(after)
    return sorted(k for k in keys if before.get(k, k) is not after.get(k, k))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, request, detail]
        self.request = -1  # the id shared by the spans of one request
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self._before: dict | None = None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        detail = DETAILS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._before = attribute_snapshot()
        self.missing = []
        originals = {}
        for name, mod_name, path in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(mod_name)
            except ModuleNotFoundError:
                owner = None
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
            else:
                originals[id(original)] = (original, wrapper)
        # Patch every module-level binding of each target, wherever imported.
        for (mod_name, attr), value in self._before.items():
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value and "." not in attr:
                self._patch(sys.modules[mod_name], attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back and prove that nothing else changed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._before is not None:
            changed = changed_attributes(self._before)
            if changed:
                raise RuntimeError(f"tracer left patched attributes behind: {changed}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def aggregate(self, request_ids) -> dict[str, dict]:
        """Totals per span name over the spans of the given requests.

        Returns ``{name: {"s", "self_s", "calls", "by_detail": {detail: s}}}``,
        plus the raw details for names that record them.
        """
        wanted = set(request_ids)
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, request, detail) in enumerate(self.spans):
            if request not in wanted:
                continue
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "by_detail": defaultdict(float), "details": []})
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[index]
            agg["calls"] += 1
            if detail is not None:
                agg["details"].append(detail)
                if isinstance(detail, str):
                    agg["by_detail"][detail] += end - start
        return out

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "request", "detail"],
            "spans": self.spans,
            "missing_targets": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
