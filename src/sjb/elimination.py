"""Exact integer matrix rank by elimination modulo primes.

A matrix is eliminated modulo the prime P = 2**31 - 1 and, when that rank
is deficient, modulo each prime below P in turn.  The residues are held in
numpy int32, 4 bytes an entry, and each update forms its products in int64
(every prime is below 2**31, so every product stays below 2**62).

The largest rank seen is the rank over Q once the primes tried are enough:

- the rank mod p is never more than the rational rank, since a minor that
  is nonzero mod p is a nonzero integer; so a full rank mod P, such as
  that of every up matrix and every sound basis stack, is returned at once;
- a matrix of rank r has a nonzero r x r minor d, and by Hadamard's
  inequality d**2 <= h2, the product over rows of max(1, sum_j a_ij**2);
- once (prod p)**2 > h2, some prime tried does not divide d.  That prime
  ranks at least r, so the largest rank seen equals r.  Every prime is
  above 2**30, so h2.bit_length() // 60 + 1 primes pass h2; before a second
  is tried, that many times the matrix's 64-bit words must fit the budget.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Any

from .lattice import check_items

if TYPE_CHECKING:
    from numpy import ndarray
else:
    ndarray = Any  # numpy is imported by the first array made, not here

P = (1 << 31) - 1


def exact_rank(matrix) -> int:
    """Rank over the rationals of an integer matrix (sequence of rows); an
    entry that is not an integer, such as 0.5, raises TypeError."""
    import numpy as np  # loaded on the first rank taken, not with the package

    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
    full = min(a.shape)
    if a.dtype.kind not in "bi":
        # Exact Python ints, from matrix itself: a list mixing ints past 2**63
        # with negatives promotes to float64.  index() refuses float and Fraction.
        a = np.frompyfunc(index, 1, 1)(np.asarray(matrix, dtype=object))
    residues = np.empty(a.shape, dtype=np.int32)
    rank, product, h2 = 0, 1, None
    for p in _primes():
        # Reduced before the narrowing, so no entry wraps, and cast to int32
        # in buffered chunks: no full-size int64 copy is made.
        np.remainder(a, np.int64(p), out=residues, casting="unsafe")
        rank = max(rank, _rank_mod_p(residues, p))
        if rank == full:
            return full
        if h2 is None:  # one row at a time: no Python copy of the whole matrix
            h2, words = 1, 0
            for row in map(np.ndarray.tolist, a):
                h2 *= max(1, sum(x * x for x in row))
                words += sum(x.bit_length() // 64 + 1 for x in row)
            primes = h2.bit_length() // 60 + 1
            check_items(primes * words, f"words over {primes} primes",
                        f"exact rank of a deficient {a.shape[0]}x{a.shape[1]} matrix")
        product *= p
        if product * product > h2:
            return rank


def _primes():
    """P, then every odd prime below it, largest first."""
    yield P
    yield from filter(_is_prime, range(P - 2, 2, -2))


def _is_prime(q: int) -> bool:
    """Whether an odd q >= 3 is prime: Miller-Rabin on the bases 2, 3, 5 and 7,
    exact below 3,215,031,751 (Pomerance, Selfridge and Wagstaff, 1980).  A
    base equal to q would reject q, so 3, 5 and 7 are answered directly."""
    if q in (3, 5, 7):
        return True
    d = (q - 1) // ((q - 1) & (1 - q))  # odd, and q - 1 = d * 2**s
    for a in (2, 3, 5, 7):
        x, e = pow(a, d, q), d
        while x not in (1, q - 1) and 2 * e < q - 1:
            x, e = x * x % q, 2 * e
        if x != q - 1 and not (x == 1 and e == d):
            return False
    return True


def _rank_mod_p(a: ndarray, p: int) -> int:
    """Rank over GF(p) of an int32 or int64 matrix of residues; a is overwritten."""
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
            inv = pow(int(a[r, c]), p - 2, p)
            piv = a[r, cols].astype(np.int64) * inv % p
            block = a[below[:, None], cols].astype(np.int64)
            block -= np.multiply.outer(a[below, c], piv)
            block %= p
            a[below[:, None], cols] = block
        r += 1
    return r
