"""Delimited text from arrays, byte for byte what '%d' and '%.6f' print.

A cell is a row of uint32 words; viewed as bytes, a word reads its
characters in order and NUL is padding.  Cells of one width stack into
arrays, arrays of cells join into a (rows, width) matrix, and the matrix
becomes text by dropping its NULs.  Digits come from small tables, built on
first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first table holds 0000..9999, then 0..9999 with the leading zeros
    but the last as NUL, then a NUL word; the second '.000'..'.999'; the
    third '000'..'999' with a NUL last byte."""
    # uint16 keeps each temporary under 256 KiB: from that size on, NumPy
    # walks the C stack before it reuses a temporary in place, and the walk
    # pages in about 0.5 MB of unwind tables.
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10 + 48).astype(np.uint8)
    lead = digits.copy()
    lead[:, :3][np.logical_and.accumulate(lead[:, :3] == 48, axis=1)] = 0
    quads = np.concatenate((digits, lead, np.zeros((1, 4), dtype=np.uint8)))
    point = digits[:1000].copy()
    point[:, 0] = 46  # '.'
    tail = np.roll(digits[:1000], -1, axis=1)
    tail[:, 3] = 0
    tables = tuple(t.view(np.uint32).ravel() for t in (quads, point, tail))
    for t in tables:
        t.flags.writeable = False
    return tables


def text_words(texts: list[str]) -> np.ndarray:
    """ASCII texts as cells, shape (len(texts), words)."""
    width = max(4, -(-max(map(len, texts), default=0) // 4) * 4)
    return np.array(texts, dtype=f"S{width}").view(np.uint32).reshape(len(texts), -1)


@cache
def word(text: str) -> np.uint32:
    """Up to four ASCII characters as one word."""
    return text_words([text])[0, 0]


def _digit_words(mag: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative ints, shape (*mag.shape, chunks): four
    to a word, as many words as the largest needs, the leading zeros but the
    last digit as NUL."""
    quads, _, _ = _digit_tables()
    chunks = -(-len(str(int(mag.max(initial=0)))) // 4)
    # q: the value without its lower chunks.  A chunk with q < 10000 is the
    # first (from the table without leading zeros); one with q == 0 lies
    # before the first digit (the NUL word), unless it is the last.
    ten4 = np.uint64(10000)
    q = mag[..., None] // ten4 ** np.arange(chunks - 1, -1, -1, dtype=np.uint64)
    idx = q % ten4
    np.add(idx, ten4, out=idx, where=q < ten4)
    ahead = idx[..., :-1]
    np.add(ahead, ten4, out=ahead, where=q[..., :-1] == 0)
    return quads[idx]


def int_cells(v: np.ndarray) -> np.ndarray:
    """Each int64 of ``v`` as '%d', shape (*v.shape, words)."""
    v = np.asarray(v, dtype=np.int64)
    u = v.view(np.uint64)
    neg = v < 0
    digits = _digit_words(np.where(neg, -u, u))  # -u wraps: |INT64_MIN| is 2**63
    out = np.empty((*v.shape, digits.shape[-1] + 1), dtype=np.uint32)
    out[..., 0] = np.where(neg, word("-"), 0)
    out[..., 1:] = digits
    return out


def float_cells(v: np.ndarray, sep: str) -> np.ndarray:
    """Each float of ``v`` as '%.6f' then the one character ``sep``, shape
    (*v.shape, words).

    A magnitude splits exactly into whole and fraction; the fraction rounds
    to millionths by ``np.rint``, carrying into the whole part.  Its product
    by 1e6 errs by at most 2**-53 relative, so the rounding is exact unless
    the product lies within 2**-50 relative of a tie.  Those cells, the
    non-finite ones and magnitudes from 2**63 on are formatted by '%.6f'.
    """
    _, point, tail = _digit_tables()
    mag = np.abs(v)
    hard = ~(mag < 2.0**63)
    mag[hard] = 0.0
    whole = np.trunc(mag)
    micros = (mag - whole) * 1e6
    del mag  # each temporary goes as soon as it is used: they set the peak memory
    rounded = np.rint(micros)
    hard |= np.abs(np.abs(micros - rounded) - 0.5) <= micros * 2.0**-50
    del micros
    carry = rounded == 1e6
    micro = np.where(carry, 0, rounded.astype(np.intp))
    del rounded
    digits = _digit_words(whole.astype(np.uint64) + carry)
    del whole
    out = np.empty((*v.shape, digits.shape[-1] + 3), dtype=np.uint32)
    out[..., 0] = np.where(np.signbit(v), word("-"), 0)  # -0.0 and what rounds to it too
    out[..., 1:-2] = digits
    out[..., -2] = point[micro // 1000]
    out[..., -1] = tail[micro % 1000] | word("\0\0\0" + sep)
    if hard.any():
        texts = text_words(["%.6f" % x + sep for x in v[hard].tolist()])
        extra = texts.shape[1] - out.shape[-1]
        if extra > 0:
            out = np.concatenate((np.zeros((*v.shape, extra), dtype=np.uint32), out), axis=-1)
        out[hard] = 0
        out[hard, : texts.shape[1]] = texts
    return out


def rows_text(columns: list[np.ndarray]) -> bytearray:
    """Rows of cells, each column (rows, words), joined into one matrix and
    returned as text without its NULs.  Empties ``columns``, so that the
    matrix and the columns are not held at once past the join."""
    rows = len(columns[0])
    text = bytearray(4 * rows * sum(c.shape[1] for c in columns))
    np.concatenate(columns, axis=1, out=np.frombuffer(text, dtype=np.uint32).reshape(rows, -1))
    columns.clear()
    return text.translate(None, b"\0")
