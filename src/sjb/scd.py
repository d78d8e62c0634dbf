"""Symmetric chain decomposition (SCD) of the subset lattice.

Partitions the subsets of {1..n} into saturated chains symmetric about
rank n/2.  The step rules mirror the Jordan basis build's: a chain
(X_k..X_{m-k}) over {1..m} has the y child (X_k..X_{m-k}, X_{m-k}+{m+1})
and the z child (X_k+{m+1}..X_{m-k-1}+{m+1}).  `lattice.grow` walks both
word trees, so the two length profiles agree position by position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import check_ground_size, check_items, grow


@dataclass
class SubsetChain:
    """Saturated chain of subsets, one rank per step."""

    n: int
    subsets: list[int]

    @property
    def start_rank(self) -> int:
        return self.subsets[0].bit_count()

    @property
    def length(self) -> int:
        return len(self.subsets)

    @property
    def top_rank(self) -> int:
        return self.subsets[-1].bit_count()


@dataclass
class ChainDecomposition:
    n: int
    chains: list[SubsetChain] = field(default_factory=list)


def scd_chains(n: int):
    """The chains of the symmetric chain decomposition of {1..n}, one at a time.

    Raises CapacityError at once if its 2**n subsets are over the work budget.
    """
    check_items(2 ** check_ground_size(n), "subsets", f"scd decomposition for n={n}")
    return (SubsetChain(n, ch) for ch in grow(n, [0], lambda ch, bit: ch + [ch[-1] | bit],
                                               lambda ch, bit: [s | bit for s in ch[:-1]]))


def build_scd(n: int) -> ChainDecomposition:
    """Partition of the subsets of {1..n} into symmetric saturated chains."""
    return ChainDecomposition(n, list(scd_chains(n)))


def chain_length_sequence(obj) -> list[tuple[int, int]]:
    """(start_rank, length) per chain, in the canonical emission order.

    Accepts either a ChainDecomposition or a JordanBasis.
    """
    return [(ch.start_rank, ch.length) for ch in obj.chains]
