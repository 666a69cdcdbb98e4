"""Byte-level tokenizer: 256 byte values plus reserved special ids.

Vocabulary layout: ids 0..255 are the raw byte values, ids 256..259 are
reserved specials.  ``detokenize(tokenize(x)) == x`` for every byte string;
special ids, and ids past the specials that a larger model's vocabulary
holds, render as readable escapes instead of bytes.
"""

from __future__ import annotations

from .config import is_integer
from .errors import ContractViolation

BYTE_VOCAB = 256
SPECIAL_TOKENS = ("<bos>", "<eos>", "<pad>", "<unk>")
VOCAB_SIZE = BYTE_VOCAB + len(SPECIAL_TOKENS)

BOS, EOS, PAD, UNK = range(BYTE_VOCAB, VOCAB_SIZE)


def tokenize(data: bytes | str) -> list[int]:
    """``data``'s bytes: a str's UTF-8, with argv's undecodable bytes (lone surrogates) as is."""
    if isinstance(data, str):
        try:
            data = data.encode("utf-8", errors="surrogateescape")
        except UnicodeEncodeError as exc:
            raise ContractViolation(f"text is not encodable as bytes: {exc}") from exc
    return list(data)


def detokenize(ids) -> bytes:
    out = bytearray()
    for tid in ids:
        if not is_integer(tid) or tid < 0:
            raise ContractViolation(f"token id {tid!r} is not an integer >= 0")
        if tid < BYTE_VOCAB:
            out.append(tid)
        elif tid < VOCAB_SIZE:
            out += SPECIAL_TOKENS[tid - BYTE_VOCAB].encode("ascii")
        else:
            out += f"<id:{tid}>".encode("ascii")
    return bytes(out)
