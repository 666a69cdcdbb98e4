"""Binary model file format (magic ``GFM1``).

Layout, all integers little-endian:

* 4 bytes magic ``GFM1``
* u32 header length, then the model config as UTF-8 JSON
* tensors until EOF, each: u32 name length, name bytes (UTF-8), u8 dtype tag
  (1 = float32), u8 rank (1 or 2), u32 dims[rank], then the row-major
  float32 payload.

Every tensor that :func:`~gemfilter.model.weight_shapes` lists for the
header config appears exactly once, with that shape; loads round-trip
bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .config import ModelConfig
from .errors import ConfigurationError, ContractViolation, ModelFormatError
from .model import ModelWeights, weight_shapes

MAGIC = b"GFM1"
DTYPE_F32 = 1


def save_model(path, weights: ModelWeights) -> None:
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise ContractViolation(f"cannot write model file {str(path)!r}: {exc.strerror}") from exc
    with fh:
        fh.write(MAGIC)
        header = json.dumps(weights.config.to_dict(), sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, arr in weights.named_tensors():
            payload = np.ascontiguousarray(arr, dtype="<f4")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<BB", DTYPE_F32, payload.ndim))
            fh.write(struct.pack(f"<{payload.ndim}I", *payload.shape))
            fh.write(payload.tobytes(order="C"))


def _read_exact(fh, count: int, what: str) -> bytes:
    # A claimed size is checked against the bytes left before anything is
    # allocated for it.
    data = fh.read(count) if count <= os.fstat(fh.fileno()).st_size - fh.tell() else b""
    if len(data) != count:
        raise ModelFormatError(f"truncated file while reading {what}")
    return data


def _utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{what} is not valid UTF-8: {exc}") from exc


def load_model(path) -> ModelWeights:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ModelFormatError(f"cannot open model file: {exc}") from exc
    with fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ModelFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = _read_exact(fh, header_len, "config header")
        try:
            values = json.loads(_utf8(header, "config header"))
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"unreadable config header: {exc}") from exc
        if not isinstance(values, dict):
            raise ModelFormatError("config header must be a JSON object")
        try:
            cfg = ModelConfig.from_dict(values)
        except ConfigurationError as exc:
            raise ModelFormatError(f"invalid config header: {exc}") from exc

        tensors: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise ModelFormatError("truncated file while reading tensor name length")
            (name_len,) = struct.unpack("<I", head)
            name = _utf8(_read_exact(fh, name_len, "tensor name"), "tensor name")
            dtype_tag, rank = struct.unpack("<BB", _read_exact(fh, 2, f"tensor {name} header"))
            if dtype_tag != DTYPE_F32:
                raise ModelFormatError(f"tensor {name} has unsupported dtype tag {dtype_tag}")
            if rank not in (1, 2):
                raise ModelFormatError(f"tensor {name} has rank {rank}, expected 1 or 2")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"tensor {name} dims"))
            count = math.prod(dims)
            payload = _read_exact(fh, 4 * count, f"tensor {name} payload")
            if name in tensors:
                raise ModelFormatError(f"tensor {name} appears more than once")
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)

    return _assemble(cfg, tensors)


def _take(tensors: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name not in tensors:
        raise ModelFormatError(f"missing tensor {name}")
    arr = tensors.pop(name)
    if arr.shape != shape:
        raise ModelFormatError(f"tensor {name} has dims {arr.shape}, config implies {shape}")
    return arr


def _assemble(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> ModelWeights:
    named = {name: _take(tensors, name, shape) for name, shape in weight_shapes(cfg)}
    if tensors:
        raise ModelFormatError(f"unexpected tensors in file: {sorted(tensors)}")
    return ModelWeights.from_named(cfg, named)
