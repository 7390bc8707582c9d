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
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first table holds 0000..9999, then 0..9999 with the leading zeros
    but the last as NUL, then a NUL word; the second '.000'..'.999'; the
    third 0..9999 as in the first, then -0..-999 likewise."""
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
    signed = np.concatenate((lead, lead[:1000]))
    signed[np.arange(10000, 11000), np.argmax(lead[:1000] > 0, axis=1) - 1] = 45  # '-'
    tables = tuple(t.view(np.uint32).ravel() for t in (quads, point, signed))
    for t in tables:
        t.flags.writeable = False
    return tables


@cache
def _tail_table(sep: str) -> np.ndarray:
    """'000'..'999' each then the one character ``sep``."""
    table = np.roll(_digit_tables()[1].view(np.uint8).reshape(-1, 4), -1, axis=1)
    table[:, 3] = ord(sep)
    table = table.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


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
    quads = _digit_tables()[0]
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


def float_words(v: np.ndarray) -> int:
    """Words that a cell of any float of ``v`` fits in: the whole part with
    room for a carry and the sign, the point and the tail.  From 2**63 on,
    '%.6f' of the largest with its sign and separator, or the 8 words of a
    whole part of 19 digits."""
    hi, lo = np.fmax.reduce(v, axis=None, initial=0.0), -np.fmin.reduce(v, axis=None, initial=0.0)
    top = max(hi, lo)
    if top == np.inf:
        return float_words(v[np.isfinite(v)])  # '-inf' and 'nan' fit in the least, 3
    if hi < 9999.0 and lo < 999.0:
        return 3  # the sign shares the whole part's word
    if top < 2.0**63:
        return 3 + -(-len(str(int(top) + 1)) // 4)
    return max(8, -(-(len("%.6f" % top) + 2) // 4))


def float_cells(v: np.ndarray, sep: str, out: np.ndarray | None = None) -> np.ndarray:
    """Each float of ``v`` as '%.6f' then the one character ``sep``, written
    into ``out`` and returned.  ``out`` is zeroed, of shape (*v.shape, words)
    with at least ``float_words(v)`` words; None allocates it.

    A magnitude splits exactly into whole and fraction; the fraction rounds
    to millionths by ``np.rint``, carrying into the whole part.  Its product
    by 1e6 errs by at most 2**-53 relative, so the rounding is exact unless
    the product lies within 2**-50 relative of a tie.  Those cells, the
    non-finite ones and magnitudes from 2**63 on are formatted by '%.6f'.
    """
    if out is None:
        out = np.zeros((*v.shape, float_words(v)), dtype=np.uint32)
    quads, point, signed = _digit_tables()
    # each temporary goes as soon as it is used: they set the peak memory
    neg = np.signbit(v)  # -0.0 and what rounds to it too
    mag = np.abs(v)
    hard = ~(mag < 2.0**63)
    mag[hard] = 0.0
    whole = np.trunc(mag)
    micros = mag  # the fraction, in millionths, in place
    micros -= whole
    micros *= 1e6
    rounded = np.rint(micros)
    carry = np.flatnonzero(rounded == 1e6)
    rounded.ravel()[carry] = 0.0
    whole.ravel()[carry] += 1.0
    # The sign and a whole part under 10000, or under 1000 if negative, share
    # one word: no chunks to divide out.
    lead = np.minimum(whole, 1e4).astype(np.intp)
    np.add(lead, 9000, out=lead, where=neg)
    if lead.max(initial=0) < 10000:
        np.add(lead, 1000, out=lead, where=neg)
        out[..., 0] = signed[lead]
        chunks = 0
    else:
        np.multiply(neg, word("-"), out=out[..., 0])
        digits = _digit_words(whole.astype(np.uint64))
        chunks = digits.shape[-1]
        out[..., 1 : 1 + chunks] = digits
        del digits
    del whole, lead, neg, mag
    off = np.abs(micros - rounded)  # the tie test, in place from here
    off -= 0.5
    hard |= np.abs(off, out=off) <= np.multiply(micros, 2.0**-50, out=micros)
    del micros, off
    lo = rounded.astype(np.intp)
    del rounded
    hi = lo // 1000  # with the product, twice as fast as '%' or np.divmod on ints
    lo -= hi * 1000
    out[..., 1 + chunks] = point[hi]
    out[..., 2 + chunks] = _tail_table(sep)[lo]
    if hard.any():
        texts = text_words(["%.6f" % x + sep for x in v[hard].tolist()])
        out[hard] = 0
        out[hard, : texts.shape[1]] = texts
    return out
