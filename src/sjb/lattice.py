"""Bitmask model of the lattice of subsets of {1, ..., n}.

Subsets are unsigned ints: bit i-1 is set iff element i is in the subset.
Elements are 1-indexed in all user-facing I/O, 0-indexed as bit positions
internally.  Every enumeration is in strictly increasing mask order so
that downstream output is canonical.
"""

from __future__ import annotations

import math

HARD_CAP = 63  # subsets must fit a single machine word
# The one work budget: the items a request may make or hold, be they dense
# matrix entries (about 5 bytes each to rank: `rank --n 14 --k 6` peaks at
# 80 MB) or basis terms and subsets (75-90 bytes each in memory).  It
# admits every up matrix and basis stack for n <= 15, sjb builds for n <= 14
# (22.1M terms, 2.0 GB) and scd builds for n <= 26.
MAX_ITEMS = 1 << 26


class CapacityError(ValueError):
    """Request outside the ground-size range or over the work budget."""


def check_ground_size(n: int) -> int:
    """Validate a ground set size against the representation cap; returns n."""
    if type(n) is not int or not 0 <= n <= HARD_CAP:
        raise CapacityError(f"ground set size must be in 0..{HARD_CAP}, got {n!r}")
    return n


def check_items(count: int, unit: str, what: str) -> None:
    """Raise CapacityError if `what` would make or hold over MAX_ITEMS items."""
    if count > MAX_ITEMS:
        raise CapacityError(f"{what} has {count} {unit}, over the cap of {MAX_ITEMS}")


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def subsets_of_rank(n: int, k: int) -> list[int]:
    """All k-element subsets of {1..n} as masks, in increasing mask order."""
    if not 0 <= k <= n:
        raise ValueError(f"rank must be in 0..{n}, got {k}")
    if k == 0:
        return [0]
    # Gosper's hack walks fixed-popcount masks in increasing order.
    out = []
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        out.append(m)
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return out


def chains_starting(n: int, k: int) -> int:
    """Chains starting at rank k in a symmetric chain decomposition of B(n)."""
    return max(binomial(n, k) - binomial(n, k - 1), 0)


def grow(n: int, chain, y, z):
    """Chains over {1..n} grown from `chain` (over the empty set), depth first.

    A chain over {1..m} has the children y(chain, bit) and, if it has two or
    more members, z(chain, bit), bit being the mask of element m+1; y comes
    before z.  This word order is the canonical order of both builders.
    """
    def walk(chain, bit):
        if bit >> n:
            yield chain
            return
        yield from walk(y(chain, bit), bit << 1)
        if len(chain) >= 2:
            yield from walk(z(chain, bit), bit << 1)
    return walk(chain, 1)


def covers_of(mask: int, n: int) -> list[int]:
    """Subsets covering `mask` in B(n): supersets with one more element."""
    return [mask | (1 << i) for i in range(n) if not mask >> i & 1]


def covered_by(mask: int) -> list[int]:
    """Subsets covered by `mask`: subsets with one element removed, ascending."""
    # Dropping a higher bit yields a smaller mask, so walk bits downward.
    return [mask ^ (1 << i) for i in reversed(range(mask.bit_length())) if mask >> i & 1]


def mask_to_elements(mask: int) -> tuple[int, ...]:
    """1-indexed elements of the subset, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_str(mask: int) -> str:
    """Human-readable subset, e.g. '{}' or '{1,3}'."""
    return "{" + ",".join(str(e) for e in mask_to_elements(mask)) + "}"
