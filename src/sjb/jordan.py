"""Inductive construction of a symmetric Jordan basis (SJB).

A symmetric Jordan chain (SJC) is a sequence of nonzero homogeneous
vectors v_k, ..., v_{n-k} with up(v_l) = v_{l+1}, up(v_{n-k}) = 0, and
ranks symmetric about n/2.  An SJB is a basis of the whole space that is
a disjoint union of SJCs.

The build adds one ground element at a time.  A chain x_k..x_{m-k} over
{1..m} has two children over {1..m+1}, the extended chain
    y_l = x_l + (l-k) * lift(x_{l-1})        for l = k .. m+1-k
and, when it holds at least two vectors, the shortened chain
    z_l = (m-k-l+1) * lift(x_{l-1}) - x_l    for l = k+1 .. m-k,
reading x_{k-1} = x_{m+1-k} = 0.  A single middle-rank vector x (2k = m)
has only the y child, (x, lift(x)); the paper calls this case (a).

This module supplies the two step rules and `lattice.grow` walks the
word tree.  Coefficients are kept exactly as constructed: rescaling any
single vector would break the up-links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import binomial, check_ground_size, check_items, grow
from .vectors import Vector


@dataclass
class JordanChain:
    """Chain of vectors spanning ranks start_rank .. n - start_rank."""

    n: int
    start_rank: int
    vectors: list[Vector]

    @property
    def length(self) -> int:
        return len(self.vectors)

    @property
    def top_rank(self) -> int:
        return self.start_rank + len(self.vectors) - 1

    def __repr__(self) -> str:
        return (f"JordanChain(n={self.n}, start_rank={self.start_rank}, "
                f"length={self.length})")


@dataclass
class JordanBasis:
    n: int
    chains: list[JordanChain] = field(default_factory=list)

    def vectors_of_rank(self, r: int) -> list[tuple[int, int, Vector]]:
        """(chain index, position, vector) for every vector of rank r."""
        out = []
        for ci, ch in enumerate(self.chains):
            if ch.start_rank <= r <= ch.top_rank:
                pos = r - ch.start_rank
                out.append((ci, pos, ch.vectors[pos]))
        return out

    def __repr__(self) -> str:
        return f"JordanBasis(n={self.n}, chains={len(self.chains)})"


# Step rules on the term dicts x_k..x_{m-k} of a chain; bit is element m+1.
# With x = xs[i] at rank l = k+i, y_{l+1} takes (i+1) * lift(x) and z_{l+1}
# takes (m-2k-i) * lift(x), m-2k = len(zs).  Lifted and unlifted masks never
# collide, and every factor is positive, so no zero is stored.
def _y(xs: list[dict[int, int]], bit: int) -> list[dict[int, int]]:
    ys = [dict(x) for x in xs] + [{}]
    for i, x in enumerate(xs):
        ys[i + 1].update({s | bit: (i + 1) * c for s, c in x.items()})
    return ys


def _z(xs: list[dict[int, int]], bit: int) -> list[dict[int, int]]:
    zs = [{s: -c for s, c in x.items()} for x in xs[1:]]
    for i, z in enumerate(zs):
        z.update({s | bit: (len(zs) - i) * c for s, c in xs[i].items()})
    return zs


def basis_terms(n: int) -> int:
    """Terms the basis of {1..n} stores, known before the build: no step cancels one."""
    return binomial(n, n // 2) * binomial(n + 1, (n + 1) // 2)


def sjb_chains(n: int):
    """The chains of the symmetric Jordan basis of {1..n}, grown one at a time.

    Raises CapacityError at once if the basis is over the work budget.
    Deterministic, and holds only the chains on the walk's current path.
    A chain of length L starts at rank (n + 1 - L) / 2.
    """
    check_items(basis_terms(check_ground_size(n)), "terms", f"sjb basis for n={n}")
    return (JordanChain(n, (n + 1 - len(xs)) // 2, [Vector._from_terms(n, x) for x in xs])
            for xs in grow(n, [{0: 1}], _y, _z))


def build_sjb(n: int) -> JordanBasis:
    """Symmetric Jordan basis of the space on subsets of {1..n}."""
    return JordanBasis(n, list(sjb_chains(n)))
