"""The up operator, its adjoint, and ground-set embeddings.

up sends a subset to the sum of the subsets covering it; down is its
adjoint under the standard inner product.  lift adjoins the new top
element n+1 to every subset, mapping vectors over {1..n} into the
"contains n+1" half of the space over {1..n+1}.  Both operators work by
direct sparse expansion, up from a table of covers for n <= TABLE_MAX_N.

The dense 0/1 inclusion matrices exist only for export and rank checks,
and one builder makes both: up's (one more element), and B(n-1)'s two-step
W (two more elements), whose rank gives up's once B(n) is split by its top
element n as lift adjoins it (verify.up_rank_check).  The work budget
counts up's own entries either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elimination import ndarray
from .lattice import binomial, check_items, covered_by, covers_of, subsets_of_rank
from .vectors import Vector


# The largest n an sjb build reaches under the work budget: a 2.25 MB table.
TABLE_MAX_N = 14
_tables: dict[int, tuple[list[tuple[int, ...]], list[list[int]]]] = {}


def _cover_table(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The covers of each mask of B(n), indexed by mask, and its masks by rank."""
    if n not in _tables:
        masks = list(range(1 << n))  # indexing it shares one int object per mask
        _tables[n] = ([tuple(masks[c] for c in covers_of(m, n)) for m in masks],
                      [[masks[m] for m in subsets_of_rank(n, r)] for r in range(n + 1)])
    return _tables[n]


def up(v: Vector) -> Vector:
    """Sum of covering subsets, extended linearly."""
    n, terms = v.n, v._terms
    if n > TABLE_MAX_N:
        return _up_sparse(v)
    covers, levels = _cover_table(n)
    acc = [0] * (1 << n)
    for mask, c in terms.items():
        for cover in covers[mask]:
            acc[cover] += c
    # Rank r lands on level r+1, read in ascending mask order; zero sums are dropped.
    return Vector._from_terms(n, {m: acc[m] for r in sorted(v.ranks)
                                  if r < n for m in levels[r + 1] if acc[m]})


def _up_sparse(v: Vector) -> Vector:
    """up for any n: each term is expanded one bit at a time into a dict."""
    acc: dict[int, int] = {}
    get = acc.get
    bits = [1 << i for i in range(v.n)]
    for mask, c in v._terms.items():
        for bit in bits:
            if not mask & bit:
                cover = mask | bit
                acc[cover] = get(cover, 0) + c
    # Sums that cancelled are dropped once, after all terms are in.
    return Vector._from_terms(v.n, {cover: s for cover, s in acc.items() if s})


def down(v: Vector) -> Vector:
    """Sum of covered subsets, extended linearly; adjoint of up."""
    return Vector(v.n, ((sub, c) for mask, c in v._terms.items()
                        for sub in covered_by(mask)))


def embed(v: Vector, n: int) -> Vector:
    """Relabel a vector over a larger ground set; masks are unchanged."""
    if n < v.n:
        raise ValueError(f"cannot embed ground set {v.n} into smaller {n}")
    return Vector._from_terms(n, dict(v._terms))


def lift(v: Vector) -> Vector:
    """Adjoin element n+1 to every subset; coefficients unchanged.

    An isomorphism onto the span of subsets containing n+1.
    """
    top = 1 << v.n
    return Vector._from_terms(v.n + 1, {mask | top: c for mask, c in v._terms.items()})


@dataclass
class UpMatrix:
    """0/1 matrix of up restricted to rank k, in ascending-mask basis order."""

    n: int
    k: int
    row_basis: list[int]  # masks of rank k+1
    col_basis: list[int]  # masks of rank k
    matrix: ndarray  # int8, len(row_basis) x len(col_basis)


def check_up_matrix_size(n: int, k: int) -> None:
    """Raise ValueError if B(n) has no up from rank k, and CapacityError if
    that up's matrix is over the budget."""
    if not 0 <= k < n:
        raise ValueError(f"rank must be in 0..{n - 1}, got {k}")
    check_items(binomial(n, k + 1) * binomial(n, k), "entries", f"up matrix for n={n}, k={k}")


def up_matrix(n: int, k: int) -> UpMatrix:
    """Matrix of up from rank k to rank k+1 of B(n)."""
    check_up_matrix_size(n, k)
    return UpMatrix(n, k, *_inclusions(n, k, 1))


def _inclusions(n: int, k: int, d: int) -> tuple[list[int], list[int], ndarray]:
    """The masks of ranks k+d and k of B(n), ascending, and the int8 0/1 matrix
    whose entry is 1 where the column's subset lies inside the row's.  A rank
    outside 0..n has no subsets, so its side of the matrix is empty."""
    import numpy as np  # loaded on the first matrix made, not with the package

    def ranked(r: int) -> list[int]:
        return subsets_of_rank(n, r) if 0 <= r <= n else []

    col_basis, row_basis = ranked(k), ranked(k + d)
    # Every (column, d-subset) pair disjoint from the column's mask is one
    # superset; masks fit int64 since n <= 63.
    masks = np.array(col_basis, dtype=np.int64)
    adds = np.array(ranked(d), dtype=np.int64)
    cols, a = ((masks[:, None] & adds) == 0).nonzero()
    matrix = np.zeros((len(row_basis), len(col_basis)), dtype=np.int8)
    matrix[np.searchsorted(np.array(row_basis, dtype=np.int64), masks[cols] | adds[a]), cols] = 1
    return row_basis, col_basis, matrix
