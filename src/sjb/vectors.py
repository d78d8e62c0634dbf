"""Sparse vectors with exact integer coefficients, indexed by subsets.

A Vector lives in the free Z-module on the subsets of {1..n}.  All
arithmetic is exact; zero coefficients are pruned on construction and
never stored.  Vectors are treated as immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .lattice import rank_of, subset_str


class GroundSetMismatchError(ValueError):
    """Two vectors over different ground sets were combined."""


class NotHomogeneousError(ValueError):
    """Vector mixes terms of different ranks."""


class Vector:
    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        top = 1 << n
        for mask, c in items:
            if not 0 <= mask < top:
                raise ValueError(f"subset mask {mask} outside ground set of size {n}")
            if c == 0:
                continue
            s = acc.get(mask, 0) + c
            if s == 0:
                del acc[mask]
            else:
                acc[mask] = s
        self.n = n
        self._terms = acc

    @classmethod
    def _from_terms(cls, n: int, terms: dict[int, int]) -> "Vector":
        """Wrap terms the caller has checked: nonzero, masks below 2^n."""
        out = cls.__new__(cls)
        out.n, out._terms = n, terms
        return out

    @classmethod
    def zero(cls, n: int) -> "Vector":
        return cls(n)

    @classmethod
    def unit(cls, n: int, mask: int) -> "Vector":
        """The basis vector of a single subset."""
        return cls(n, ((mask, 1),))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> list[int]:
        """Masks with nonzero coefficient, ascending."""
        return sorted(self._terms)

    def items(self) -> list[tuple[int, int]]:
        """(mask, coefficient) pairs in ascending mask order."""
        return sorted(self._terms.items())

    def coeff(self, mask: int) -> int:
        return self._terms.get(mask, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def _check_same_ground(self, other: "Vector") -> None:
        if self.n != other.n:
            raise GroundSetMismatchError(f"ground sets differ: {self.n} vs {other.n}")

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_same_ground(other)
        acc = dict(self._terms)
        for mask, c in other._terms.items():
            s = acc.get(mask, 0) + c
            if s == 0:
                acc.pop(mask, None)
            else:
                acc[mask] = s
        return Vector._from_terms(self.n, acc)

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Vector":
        return self * -1

    def __mul__(self, c: int) -> "Vector":
        if not isinstance(c, int):
            return NotImplemented
        return Vector._from_terms(
            self.n, {} if c == 0 else {m: c * v for m, v in self._terms.items()})

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> int:
        """Standard inner product: subsets form an orthonormal basis."""
        if not isinstance(other, Vector):
            raise TypeError(f"expected Vector, got {type(other).__name__}")
        self._check_same_ground(other)
        a, b = self._terms, other._terms
        if len(b) < len(a):
            a, b = b, a
        return sum(c * b[m] for m, c in a.items() if m in b)

    def norm_sq(self) -> int:
        """Squared euclidean length, an exact non-negative integer."""
        return sum(c * c for c in self._terms.values())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mask, c in self.items():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = subset_str(mask) if mag == 1 else f"{mag}*{subset_str(mask)}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Vector({self.n}, {self.items()!r})"


def homogeneous_rank(v: Vector) -> int | None:
    """Rank of a homogeneous vector, None for zero; raises on mixed ranks."""
    ranks = {rank_of(m) for m in v._terms}
    if len(ranks) > 1:
        raise NotHomogeneousError(f"terms mix ranks {sorted(ranks)}")
    return ranks.pop() if ranks else None
