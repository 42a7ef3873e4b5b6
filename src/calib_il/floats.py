"""Python's float ``repr``, exact to the byte, for many cells at a time.

``rows(matrix)`` yields, for each row of a float64 matrix, exactly
``",".join(map(repr, row.tolist()))``, computed in chunks of whole rows
of about ``CHUNK_CELLS`` cells so that a writer streams it.

Each finite cell with ``1e-4 <= |x| < 1e16``, where ``repr`` is
positional, takes the vectorized path:

- ``|x|`` is scaled by an exact ``10**p`` (``p <= 20``) into ``y = top + lo``
  with Dekker's two-product, ``p`` the least that makes x's scaled ulp
  ``u`` at least 1, so that ``top >= 2**52`` is an integer.
- x's rounding interval is ``y - u/2 .. y + u/2``. ``lo`` plus each
  half-width is exact, so the interval's integer ceiling ``a`` and floor
  ``b`` are too. Two refinements never change a result in this range, so
  they are left out: an end is an integer only for ``x >= 2**53``, where it
  is odd and x itself, even, is nearer, so whether the ends count does not
  matter; and the narrower interval below a power of two (``y - u/4``)
  gives the same digits for each of the 67 powers of two in the range
  (``tests/test_floats.py`` renders them all).
- ``repr`` keeps the fewest digits: a multiple of ``10**j`` in ``a..b`` for
  the largest such ``j``, and of those the one nearest ``y``.
- The digits are laid out at fixed byte offsets by 4-digit word gathers:
  a lead word (separator and sign), the integer words, the point and 20
  fraction columns. A keep-mask clears the leading and trailing zeros;
  the cleared bytes are deleted, and one decode and split give the rows.

Every other cell is left to ``repr(float(v))``: zeros, subnormals,
exponent-form and non-finite values, and a cell exactly halfway between
its two nearest candidates.
"""

from __future__ import annotations

import numpy as np

CHUNK_CELLS = 2048

_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_TEN = np.array([float(10**k) for k in range(21)])
# Dekker's split of each 10**p into two halves of at most 26 bits.
_TEN_HI = _TEN * 134217729.0 - (_TEN * 134217729.0 - _TEN)
_TEN_LO = _TEN - _TEN_HI


def _least_scale(biased: int) -> int:
    # The least p >= 0 with 10**p * 2**e >= 1, e the exponent of the ulp.
    e = biased - 1075
    return next(p for p in range(21) if e >= 0 or 10**p >= 2**-e)


# p by biased exponent, for the exponents of 1e-4 .. 1e16 (0 elsewhere).
_SCALE = np.zeros(2048, dtype=np.intp)
_SCALE[1009:1077] = [_least_scale(b) for b in range(1009, 1077)]

# "0000".."9999" as 4-byte words, built from four grids of single digits
# so that no wider temporary raises the process's peak memory.
_DIGIT = np.frombuffer(b"0123456789", np.uint8)
_WORDS = np.frombuffer(np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"),
                                axis=-1).tobytes(), np.uint32)
# A cell's lead word, its sign after nothing, "," or "\n" (which starts
# every row but the first), and the point; NUL bytes are deleted.
_LEADS = np.frombuffer(b"\0\0\0-\0\0,-\0\0\n-", np.uint32)
_POINT = np.frombuffer(b"\0\0\0.", np.uint32)[0]


def _bytes_kept(keep) -> np.ndarray:
    # Boolean columns, four per word, as uint32 masks of 0xFF bytes.
    return (np.asarray(keep, dtype=np.uint8) * np.uint8(255)).view(np.uint32)


# Masks of a cell's words. By the number of integer words: the lead word,
# the integer words and the point, at index 2 * n + negative for a cell of
# n integer digits (n = 0 keeps only the separator, for a cell left to
# repr). The 20 fraction columns first..last-1, at index 21 * first + last.
_HEAD_KEEP = {width: _bytes_kept([[True, True, True, negative and digits > 0]
                                  + [col >= 4 * width - digits for col in range(4 * width)]
                                  + [digits > 0] * 4
                                  for digits in range(4 * width + 1)
                                  for negative in (False, True)])
              for width in range(1, 5)}
_FRAC_KEEP = _bytes_kept((np.arange(20) >= np.arange(21)[:, None, None])
                         & (np.arange(20) < np.arange(21)[:, None])).reshape(441, 5)


def rows(matrix: np.ndarray):
    """Each row of float64 ``matrix`` as ``",".join(map(repr, row))``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    step = max(1, CHUNK_CELLS // matrix.shape[1])
    for start in range(0, len(matrix), step):
        yield from _chunk(matrix[start:start + step])


def _chunk(x: np.ndarray) -> list[str]:
    cols = x.shape[1]
    v = x.ravel()
    mag = np.abs(v)
    fast = (mag >= 1e-4) & (mag < 1e16)
    # Every lane gets a positional value; the others' text is masked out.
    p, d, j, certified = _shortest(np.where(fast, mag, 1.0), fast)
    certified &= fast
    lines = _text(v < 0, p, d, j, certified, cols)
    for cell in np.flatnonzero(~certified).tolist():
        row, col = divmod(cell, cols)
        cells = lines[row].split(",")
        cells[col] = repr(float(v[cell]))
        lines[row] = ",".join(cells)
    return lines


def _shortest(mag: np.ndarray, fast: np.ndarray):
    """The scale p of each of ``mag`` (1e-4 <= mag < 1e16), its shortest
    digits d (mag's repr is d / 10**p), their trailing zeros j in the
    ``fast`` lanes, and whether d is certain: False where two candidates
    tie."""
    biased = mag.view(np.int64) >> 52
    p = _SCALE.take(biased)

    # y = mag * 10**p exactly, as top + lo (Dekker), top an integer >= 2**52.
    ten = _TEN.take(p)
    hi = mag * ten
    big = mag * 134217729.0
    mag_hi = big - (big - mag)
    mag_lo = mag - mag_hi
    ten_hi, ten_lo = _TEN_HI.take(p), _TEN_LO.take(p)
    lo = ((mag_hi * ten_hi - hi) + mag_hi * ten_lo + mag_lo * ten_hi) + mag_lo * ten_lo
    top = hi.astype(np.int64)
    del hi, big, mag_hi, mag_lo, ten_hi, ten_lo  # temporaries set the writers' peak

    # The scaled rounding interval's integer ceiling a and floor b. lo and
    # the half-width are multiples of 2**(e+p-1) >= 2**-47 below 2**4, so
    # their sum is exact.
    half = ((biased - 53) << 52).view(np.float64) * ten  # half the scaled ulp
    a = top + np.ceil(lo - half).astype(np.int64)
    b = top + np.floor(lo + half).astype(np.int64)
    del half

    # j: the most trailing zeros a multiple in a..b can have. A multiple
    # of 10**k lies in a..b iff b // 10**k > (a - 1) // 10**k.
    j = np.zeros(len(mag), dtype=np.int64)
    bounds = np.stack([a - 1, b]) // 10
    live = np.flatnonzero((bounds[1] > bounds[0]) & fast)
    bounds = bounds.take(live, axis=1)
    while live.size:
        j[live] += 1
        bounds //= 10
        more = np.flatnonzero(bounds[1] > bounds[0])
        live, bounds = live.take(more), bounds.take(more, axis=1)

    # The multiple of 10**j nearest y; it lies in a..b, as the interval is
    # symmetric about y and holds one.
    step = _POW10.take(j)
    whole = np.floor(lo)
    n = top + whole.astype(np.int64)
    rem = n % step
    twice_frac = 2.0 * (lo - whole)
    gap = (step - 2 * rem).astype(np.float64)  # exact near 0, where it matters
    d = n - rem + step * (twice_frac > gap)
    return p, d, j, twice_frac != gap


def _text(negative, p, d, j, certified, cols: int) -> list[str]:
    """The rows of ``cols`` cells whose shortest digits are d / 10**p with j
    trailing zeros, and an empty cell where not ``certified``.

    Each cell is laid out as words: a lead (separator and sign), the
    integer part, the point and 20 fraction columns; the bytes a mask
    clears are NUL, and deleted."""
    unit = _POW10.take(np.minimum(p, 18))
    int_part = d // unit
    frac_part = d - int_part * unit
    width = 1 + sum(int(int_part.max(where=certified, initial=0)) >= 10**k for k in (4, 8, 12))
    digits = np.searchsorted(_POW10[1:4 * width], int_part, side="right") + 1
    head = np.where(certified, 2 * digits + negative, 0)
    # The fraction of an integral value (j >= p) is the zero in column 19.
    span = np.where(certified, np.where(j >= p, 19 * 21 + 20, (20 - p) * 21 + 20 - j), 0)
    del digits

    text = np.empty((len(d), width + 7), dtype=np.uint32)
    lead = text[:, 0]
    lead.fill(_LEADS[1])
    lead[::cols] = _LEADS[2]
    lead[0] = _LEADS[0]
    text[:, width + 1] = _POINT
    for part, part_cols in ((int_part, range(width, 0, -1)),
                            (frac_part, range(width + 6, width + 1, -1))):
        for col in part_cols:
            quot = part // 10000
            text[:, col] = _WORDS.take(part - quot * 10000)
            part = quot
    del int_part, frac_part, part, quot
    text[:, :width + 2] &= _HEAD_KEEP[width].take(head, axis=0)
    text[:, width + 2:] &= _FRAC_KEEP.take(span, axis=0)
    return text.tobytes().translate(None, b"\0").decode("ascii").split("\n")
