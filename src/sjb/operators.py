"""The up operator, its adjoint, and ground-set embeddings.

up sends a subset to the sum of the subsets covering it; down is its
adjoint under the standard inner product.  lift adjoins the new top
element n+1 to every subset, mapping vectors over {1..n} into the
"contains n+1" half of the space over {1..n+1}.  Both operators work by
direct sparse expansion, up from a table of covers for n <= TABLE_MAX_N;
the dense matrix form exists only for rank checks and export.
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
                      [[m for m in masks if m.bit_count() == r] for r in range(n + 1)])
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
    return Vector._from_terms(n, {m: acc[m] for r in sorted(set(map(int.bit_count, terms)))
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

    @property
    def rows(self) -> list[list[int]]:
        """The matrix as lists of Python ints."""
        return self.matrix.tolist()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_basis), len(self.col_basis)


def check_up_matrix_size(n: int, k: int) -> None:
    """Raise CapacityError if the rank-k up matrix of B(n) is over the budget."""
    check_items(binomial(n, k + 1) * binomial(n, k), "entries", f"up matrix for n={n}, k={k}")


def up_matrix(n: int, k: int) -> UpMatrix:
    """Matrix of up from rank k to rank k+1 of B(n)."""
    if not 0 <= k < n:
        raise ValueError(f"rank must be in 0..{n - 1}, got {k}")
    check_up_matrix_size(n, k)
    import numpy as np  # loaded on the first matrix made, not with the package

    col_basis = subsets_of_rank(n, k)
    row_basis = subsets_of_rank(n, k + 1)
    # Every (column, bit) pair whose bit the column's mask lacks is one cover;
    # masks fit int64 since n <= 63.
    masks = np.array(col_basis, dtype=np.int64)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    cols, b = ((masks[:, None] & bits) == 0).nonzero()
    covers = masks[cols] | bits[b]
    matrix = np.zeros((len(row_basis), len(col_basis)), dtype=np.int8)
    matrix[np.searchsorted(np.array(row_basis, dtype=np.int64), covers), cols] = 1
    return UpMatrix(n, k, row_basis, col_basis, matrix)
