"""Byte-level tokenizer: 256 byte values plus reserved special ids.

Vocabulary layout: ids 0..255 are the raw byte values, ids 256..259 are
reserved specials.  ``detokenize(tokenize(x)) == x`` for every byte string;
special ids render as readable escapes instead of bytes.
"""

from __future__ import annotations

from .config import is_integer
from .errors import ContractViolation

BYTE_VOCAB = 256
SPECIAL_TOKENS = ("<bos>", "<eos>", "<pad>", "<unk>")
VOCAB_SIZE = BYTE_VOCAB + len(SPECIAL_TOKENS)

BOS, EOS, PAD, UNK = range(BYTE_VOCAB, VOCAB_SIZE)


def tokenize(data: bytes | str) -> list[int]:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return list(data)


def detokenize(ids) -> bytes:
    out = bytearray()
    for tid in ids:
        if not is_integer(tid) or not 0 <= tid < VOCAB_SIZE:
            raise ContractViolation(f"token id {tid!r} outside vocabulary of size {VOCAB_SIZE}")
        out.extend(SPECIAL_TOKENS[tid - BYTE_VOCAB].encode("ascii") if tid >= BYTE_VOCAB else [tid])
    return bytes(out)
