"""Exact integer matrix rank: a modular full-rank certificate, then Bareiss.

Every rank question sjb asks is a full-rank question, so the matrix is
first eliminated modulo the prime P = 2**31 - 1.  The residues are held in
numpy int32, 4 bytes an entry, and each update forms its products in int64
(residues stay below P, so every product stays below 2**62).  A rank mod P
is never more than the rational rank, since a minor that is nonzero mod P
is a nonzero integer; so a full modular rank is a certificate of full rank.

A deficient modular rank proves nothing by itself: the matrix may be
singular, or P may divide every maximal minor.  Such matrices are ranked
by fraction-free (Bareiss) elimination over the integers, whose update
rule a[i][j] <- (a[i][j]*pivot - a[i][c]*a[r][j]) / prev keeps every
intermediate entry an exact minor of the input, so the division is
always exact.  Either way the result is the exact rank over Q.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from numpy import ndarray
else:
    ndarray = Any  # numpy is imported by the first rank taken, not here

P = (1 << 31) - 1


def exact_rank(matrix) -> int:
    """Rank over the rationals of an integer matrix (sequence of rows); an
    entry that is not an integer, such as 0.5, raises TypeError."""
    import numpy as np  # loaded on the first rank taken, not with the package

    a = np.asarray(matrix)
    if a.dtype.kind not in "biuO":
        # Python ints mixing values past 2**63 with negatives promote to
        # float64, which rounds them; keep the original ints instead.
        a = np.array(matrix, dtype=object)
    if a.size == 0:
        return 0
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
    full = min(a.shape)
    if a.dtype.kind in "bi":
        # Reduced in int64 before the narrowing, so no entry wraps, and cast
        # to int32 in buffered chunks: no full-size int64 copy is made.
        residues = np.empty(a.shape, dtype=np.int32)
        np.remainder(a, np.int64(P), out=residues, casting="unsafe")
    else:
        # Entries past int64 (uint64 or object arrays): reduce them exactly.
        # index() refuses a float or a Fraction instead of truncating it.
        residues = np.array([[index(x) % P for x in row] for row in a.tolist()],
                            dtype=np.int32)
    if _rank_mod_p(residues) == full:
        return full
    return _rank_bigint([[index(x) for x in row] for row in a.tolist()])


def _rank_mod_p(a: ndarray) -> int:
    """Rank over GF(P) of an int32 or int64 matrix of residues; a is overwritten."""
    import numpy as np

    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pick = r + int(nz[0])
            a[[r, pick]] = a[[pick, r]]
        # Rows below the pivot with a nonzero in column c: a row swapped
        # down from r held a zero there.  Only the pivot row's nonzero
        # columns change, and column c itself is never read again.
        below = r + nz[1:]
        cols = c + 1 + a[r, c + 1:].nonzero()[0]
        if below.size and cols.size:
            inv = pow(int(a[r, c]), P - 2, P)
            piv = a[r, cols].astype(np.int64) * inv % P
            block = a[below[:, None], cols].astype(np.int64)
            block -= np.multiply.outer(a[below, c], piv)
            block %= P
            a[below[:, None], cols] = block
        r += 1
    return r


def _rank_bigint(rows: list[list[int]]) -> int:
    """Exact rank by Bareiss elimination over Python ints; rows is overwritten."""
    m = len(rows)
    n = len(rows[0])
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        best = -1
        best_abs = 0
        for i in range(r, m):
            v = rows[i][c]
            if v and (best < 0 or abs(v) < best_abs):
                best = i
                best_abs = abs(v)
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
        piv_row = rows[r]
        pv = piv_row[c]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[c]
            if f:
                for j in range(c + 1, n):
                    ri[j] = (ri[j] * pv - f * piv_row[j]) // prev
            elif pv != prev:
                # Bareiss rescales untouched rows too; division stays exact.
                for j in range(c + 1, n):
                    ri[j] = ri[j] * pv // prev
            ri[c] = 0
        prev = pv
        r += 1
    return r
