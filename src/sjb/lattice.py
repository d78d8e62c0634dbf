"""Bitmask model of the lattice of subsets of {1, ..., n}.

Subsets are unsigned ints: bit i-1 is set iff element i is in the subset.
Elements are 1-indexed in all user-facing I/O, 0-indexed as bit positions
internally.  Every enumeration is in strictly increasing mask order so
that downstream output is canonical.
"""

from __future__ import annotations

import math
import os

HARD_CAP = 63  # subsets must fit a single machine word
DEFAULT_CAP = 24  # 2**n basis subsets; keeps exact builds desk-sized
CAP_ENV_VAR = "SJB_N_CAP"


class CapacityError(ValueError):
    """Ground set size outside the configured cap."""


def ground_cap() -> int:
    """Active cap on the ground set size (env override, else default)."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CapacityError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 0 <= cap <= HARD_CAP:
        raise CapacityError(f"{CAP_ENV_VAR} must be in 0..{HARD_CAP}, got {cap}")
    return cap


def check_ground_size(n: int, cap: int | None = None) -> int:
    """Validate a ground set size against the cap; returns n."""
    if cap is None:
        cap = ground_cap()
    cap = min(cap, HARD_CAP)
    if not isinstance(n, int) or not 0 <= n <= cap:
        raise CapacityError(f"ground set size must be in 0..{cap}, got {n!r}")
    return n


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rank_of(mask: int) -> int:
    """Number of elements in the subset."""
    return mask.bit_count()


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


def covers_of(mask: int, n: int) -> list[int]:
    """Subsets covering `mask` in B(n): supersets with one more element."""
    return [mask | (1 << i) for i in range(n) if not mask >> i & 1]


def covered_by(mask: int) -> list[int]:
    """Subsets covered by `mask`: subsets with one element removed, ascending."""
    # Dropping a higher bit yields a smaller mask, so walk bits downward.
    out = []
    m = mask
    while m:
        high = 1 << (m.bit_length() - 1)
        out.append(mask ^ high)
        m ^= high
    return out


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


def elements_to_mask(elements, n: int) -> int:
    """Mask for a collection of 1-indexed elements; rejects out-of-range and repeats."""
    mask = 0
    for e in elements:
        if not isinstance(e, int) or not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside 1..{n}")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"repeated element {e}")
        mask |= bit
    return mask


def subset_str(mask: int) -> str:
    """Human-readable subset, e.g. '{}' or '{1,3}'."""
    return "{" + ",".join(str(e) for e in mask_to_elements(mask)) + "}"
