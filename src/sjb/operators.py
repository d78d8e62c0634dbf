"""The up operator, its adjoint, and ground-set embeddings.

up sends a subset to the sum of the subsets covering it; down is its
adjoint under the standard inner product.  lift adjoins the new top
element n+1 to every subset, mapping vectors over {1..n} into the
"contains n+1" half of the space over {1..n+1}.  Both operators work by
direct sparse expansion; the dense matrix form exists only for rank
checks and export.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import CapacityError, binomial, covered_by, covers_of, subsets_of_rank
from .vectors import Vector

# Ranking a dense up matrix peaks at about 32 bytes per entry: the Python
# row lists, then the int64 residues and the elimination's temporaries
# (measured: 346 MB for n=14, k=6, 121 MB for n=13, k=6).  2**26 entries
# keep that near 2 GB and admit every k for n <= 15.
UP_MATRIX_MAX_ENTRIES = 1 << 26


def up(v: Vector) -> Vector:
    """Sum of covering subsets, extended linearly."""
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
    acc: dict[int, int] = {}
    for mask, c in v._terms.items():
        for sub in covered_by(mask):
            s = acc.get(sub, 0) + c
            if s == 0:
                del acc[sub]
            else:
                acc[sub] = s
    return Vector._from_terms(v.n, acc)


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
    rows: list[list[int]]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_basis), len(self.col_basis)


def check_up_matrix_size(n: int, k: int) -> None:
    """Raise CapacityError if the rank-k up matrix of B(n) is over the cap."""
    entries = binomial(n, k + 1) * binomial(n, k)
    if entries > UP_MATRIX_MAX_ENTRIES:
        raise CapacityError(f"up matrix for n={n}, k={k} has {entries} entries, "
                            f"over the cap of {UP_MATRIX_MAX_ENTRIES}")


def up_matrix(n: int, k: int) -> UpMatrix:
    """Matrix of up from rank k to rank k+1 of B(n)."""
    if not 0 <= k < n:
        raise ValueError(f"rank must be in 0..{n - 1}, got {k}")
    check_up_matrix_size(n, k)
    col_basis = subsets_of_rank(n, k)
    row_basis = subsets_of_rank(n, k + 1)
    row_index = {mask: i for i, mask in enumerate(row_basis)}
    rows = [[0] * len(col_basis) for _ in row_basis]
    for j, mask in enumerate(col_basis):
        for cover in covers_of(mask, n):
            rows[row_index[cover]][j] = 1
    return UpMatrix(n, k, row_basis, col_basis, rows)
