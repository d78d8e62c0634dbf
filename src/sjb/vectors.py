"""Sparse vectors with exact integer coefficients, indexed by subsets.

A Vector lives in the free Z-module on the subsets of {1..n}.  All
arithmetic is exact; zero coefficients are pruned on construction and
never stored.  Vectors are treated as immutable after construction.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import index, mul
from typing import Iterable, Mapping

from .lattice import subset_str


class GroundSetMismatchError(ValueError):
    """Two vectors over different ground sets were combined."""


class Vector:
    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        top = 1 << n
        for mask, c in items:
            mask, c = index(mask), index(c)  # TypeError on a float, Fraction or str
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

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def ranks(self) -> set[int]:
        """The ranks of the subsets that hold a term."""
        return set(map(int.bit_count, self._terms))

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
        return Vector(self.n, chain(self._terms.items(), other._terms.items()))

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
        return sum(map(mul, a.values(), map(b.get, a, repeat(0))))

    def norm_sq(self) -> int:
        """Squared euclidean length, an exact non-negative integer."""
        return sum(c * c for c in self._terms.values())

    def __str__(self) -> str:
        out = ""
        for mask, c in self.items():
            out += (" - " if out else "-") if c < 0 else (" + " if out else "")
            out += subset_str(mask) if abs(c) == 1 else f"{abs(c)}*{subset_str(mask)}"
        return out or "0"

    def __repr__(self) -> str:
        return f"Vector({self.n}, {self.items()!r})"
