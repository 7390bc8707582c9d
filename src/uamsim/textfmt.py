"""Delimited text from arrays, byte for byte what '%d' and '%.6f' print.

A cell is a row of uint32 words; viewed as bytes, a word reads its
characters in order and NUL is padding.  A block of rows is one zeroed
(rows, words) matrix: each column's cells are written straight into their
span of it, and the matrix becomes text by dropping its NULs once.  Digits
come from small tables, built on first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The first table holds '.000'..'.999'; the second 0..9999, the leading
    zeros but the last as NUL, then -0..-999 likewise."""
    # uint16 keeps each temporary under 256 KiB: from that size on, NumPy
    # walks the C stack before it reuses a temporary in place, and the walk
    # pages in about 0.5 MB of unwind tables.
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10 + 48).astype(np.uint8)
    point = digits[:1000].copy()
    point[:, 0] = 46  # '.'
    lead = digits
    lead[:, :3][np.logical_and.accumulate(lead[:, :3] == 48, axis=1)] = 0
    signed = np.concatenate((lead, lead[:1000]))
    signed[np.arange(10000, 11000), np.argmax(lead[:1000] > 0, axis=1) - 1] = 45  # '-'
    tables = tuple(t.view(np.uint32).ravel() for t in (point, signed))
    for t in tables:
        t.flags.writeable = False
    return tables


@cache
def _tail_table(sep: str) -> np.ndarray:
    """'000'..'999' each then the one character ``sep``."""
    table = np.roll(_digit_tables()[0].view(np.uint8).reshape(-1, 4), -1, axis=1)
    table[:, 3] = ord(sep)
    table = table.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def text_words(texts: list[str]) -> np.ndarray:
    """ASCII texts as cells, shape (len(texts), words)."""
    width = max(4, -(-max(map(len, texts), default=0) // 4) * 4)
    return np.array(texts, dtype=f"S{width}").view(np.uint32).reshape(len(texts), -1)


def float_words(v: np.ndarray) -> int:
    """Words that a cell of any float of ``v`` fits in: the sign and whole
    part in one word, the point and the tail, or '%.6f' of the largest with
    its sign and separator."""
    hi, lo = np.fmax.reduce(v, axis=None, initial=0.0), -np.fmin.reduce(v, axis=None, initial=0.0)
    top = max(hi, lo)
    if top == np.inf:
        return float_words(v[np.isfinite(v)])  # '-inf' and 'nan' fit in the least, 3
    if hi < 9999.0 and lo < 999.0:
        return 3
    return -(-(len("%.6f" % top) + 2) // 4)


def float_cells(v: np.ndarray, sep: str, out: np.ndarray) -> np.ndarray:
    """Each float of ``v`` as '%.6f' then the one character ``sep``, written
    into ``out`` and returned.  ``out`` is zeroed, of shape (*v.shape, words)
    with at least ``float_words(v)`` words.

    A magnitude splits exactly into whole and fraction; the fraction rounds
    to millionths by ``np.rint``, carrying into the whole part.  Its product
    by 1e6 errs by at most 2**-53 relative, so the rounding is exact unless
    the product lies within 2**-50 relative of a tie.  The sign and a whole
    part under 10000, or under 1000 if negative, share one word.  The other
    cells, the near ties and the non-finite ones are formatted by '%.6f'.
    """
    point, signed = _digit_tables()
    # each temporary goes as soon as it is used: they set the peak memory
    neg = np.signbit(v)  # -0.0 and what rounds to it too
    mag = np.abs(v)
    hard = ~(mag < 1e4)
    mag[hard] = 0.0
    whole = np.trunc(mag)
    micros = mag  # the fraction, in millionths, in place
    micros -= whole
    micros *= 1e6
    rounded = np.rint(micros)
    carry = np.flatnonzero(rounded == 1e6)
    rounded.ravel()[carry] = 0.0
    whole.ravel()[carry] += 1.0
    # the signed table's row, a negative one 9000 up at first: from 10000 on
    # it is a whole part from 10**4, or from 10**3 if negative, too wide;
    # then the negative rows move up to the table's -0..-999
    lead = whole.astype(np.intp)
    np.add(lead, 9000, out=lead, where=neg)
    hard |= lead >= 10000
    np.add(lead, 1000, out=lead, where=neg)
    out[..., 0] = signed.take(lead, mode="clip")  # a hard cell is rewritten below
    del whole, lead, neg, mag
    off = np.abs(micros - rounded)  # the tie test, in place from here
    off -= 0.5
    hard |= np.abs(off, out=off) <= np.multiply(micros, 2.0**-50, out=micros)
    del micros, off
    lo = rounded.astype(np.intp)
    del rounded
    hi = lo // 1000  # with the product, twice as fast as '%' or np.divmod on ints
    lo -= hi * 1000
    out[..., 1] = point[hi]
    out[..., 2] = _tail_table(sep)[lo]
    if hard.any():
        texts = text_words(["%.6f" % x + sep for x in v[hard].tolist()])
        out[hard] = 0
        out[hard, : texts.shape[1]] = texts
    return out
