"""Symmetric Jordan bases and symmetric chain decompositions of the
subset lattice, built inductively and verified with exact arithmetic."""

from .elimination import exact_rank
from .jordan import JordanBasis, JordanChain, build_sjb
from .lattice import (CapacityError, binomial, covered_by, covers_of,
                      mask_to_elements, elements_to_mask, rank_of,
                      subset_str, subsets_of_rank)
from .operators import UpMatrix, down, embed, lift, up, up_matrix
from .scd import (ChainDecomposition, SubsetChain, build_scd,
                  chain_length_profile, chain_length_sequence)
from .serialize import (DocumentError, deserialize, export_up_matrix_csv,
                        from_document, load, save, serialize, to_document)
from .vectors import (GroundSetMismatchError, NotHomogeneousError, Vector,
                      homogeneous_rank)
from .verify import (Check, InvalidChainError, RatioProfile, UpRankResult,
                     SjcReport, VerificationReport, check_orthogonality,
                     check_ratio_uniformity, ratio_profile, unimodality_report,
                     up_rank_check, verify_chains, verify_scd, verify_sjb, verify_sjc)

__version__ = "0.1.0"

__all__ = [
    "Vector", "homogeneous_rank",
    "GroundSetMismatchError", "NotHomogeneousError",
    "binomial", "subsets_of_rank", "covers_of", "covered_by", "rank_of",
    "mask_to_elements", "elements_to_mask", "subset_str", "CapacityError",
    "up", "down", "lift", "embed", "up_matrix", "UpMatrix",
    "JordanChain", "JordanBasis", "build_sjb",
    "SubsetChain", "ChainDecomposition", "build_scd",
    "chain_length_profile", "chain_length_sequence",
    "exact_rank",
    "VerificationReport", "SjcReport", "Check", "RatioProfile", "UpRankResult",
    "verify_sjc", "verify_sjb", "verify_chains", "verify_scd", "check_orthogonality",
    "ratio_profile", "check_ratio_uniformity", "up_rank_check",
    "unimodality_report", "InvalidChainError",
    "serialize", "deserialize", "to_document", "from_document",
    "save", "load", "export_up_matrix_csv", "DocumentError",
    "__version__",
]
