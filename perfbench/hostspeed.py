"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the CPU this process gets can run at half speed for tens of
seconds while a co-tenant is busy, and the program's times move with it.  The
benchmark times this reference right before and right after every request
and scales the request's times by ``REFERENCE_S`` over the reference's mean
time, so a request that ran in a slow phase is reported at the speed of a
quiet host.  The reference is the engine's decode work in miniature (small
projections, a growing KV cache, per-head softmax attention, an MLP), frozen
here so that no change to the engine changes it.
"""

from __future__ import annotations

import time

import numpy as np

D_MODEL, N_HEADS, HIDDEN, LAYERS, CONTEXT, STEPS = 64, 4, 128, 2, 256, 48
# The reference's time on a quiet host of the kind the benchmark was tuned on
# (2 shared vCPUs, numpy 2.4, OpenBLAS 0.3.31: 7.5-7.9 ms), rounded, so that
# scaled times read as seconds at that speed.
REFERENCE_S = 0.008


class HostSpeed:
    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        f32 = np.float32
        self.layers = [
            tuple(rng.standard_normal(shape).astype(f32) / 8 for shape in
                  ((D_MODEL, D_MODEL),) * 4 + ((D_MODEL, HIDDEN), (HIDDEN, D_MODEL)))
            for _ in range(LAYERS)
        ]
        self.x0 = rng.standard_normal((1, D_MODEL)).astype(f32)
        self.kv0 = rng.standard_normal((CONTEXT, D_MODEL)).astype(f32) / 8

    def _run(self) -> float:
        dh = D_MODEL // N_HEADS
        x = self.x0
        caches = [[self.kv0, self.kv0] for _ in self.layers]
        for _ in range(STEPS):
            for (wq, wk, wv, wo, w1, w2), cache in zip(self.layers, caches):
                xn = x / np.sqrt(np.mean(x * x) + 1e-6)
                q, k, v = xn @ wq, xn @ wk, xn @ wv
                cache[0] = np.concatenate([cache[0], k])
                cache[1] = np.concatenate([cache[1], v])
                out = np.empty_like(x)
                for hd in range(N_HEADS):
                    cols = slice(hd * dh, (hd + 1) * dh)
                    s = np.ascontiguousarray(cache[0][:, cols]) @ q[0, cols]
                    p = np.exp(s - s.max())
                    out[0, cols] = (p / p.sum()) @ np.ascontiguousarray(cache[1][:, cols])
                x = xn + out @ wo
                x = x + np.maximum(x @ w1, 0.0) @ w2
                x = x / np.sqrt(np.mean(x * x) + 1e-6)
        return float(x[0, 0])

    def measure(self) -> float:
        """Seconds one run of the reference takes now."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def timed(self, fn, *args):
        """Call ``fn`` between two reference runs.

        Returns its result and the scale that turns its times into times at
        the reference speed: ``REFERENCE_S`` over the mean of the two runs.
        """
        before = self.measure()
        result = fn(*args)
        return result, 2 * REFERENCE_S / (before + self.measure())
