"""Canonical document serialization and CSV matrix export.

Documents are JSON with a fixed key order, two-space indent, and a
trailing newline, so equal objects serialize to byte-identical files.
They are written as text directly, chain by chain, so save() holds one
chain's text at a time, never the whole document.
Subsets appear as sorted 1-indexed element lists and coefficients as
decimal strings, keeping files readable and safe for any consumer's
integer width.
"""

from __future__ import annotations

import csv
import json
from typing import Union

from .jordan import JordanBasis, JordanChain
from .lattice import elements_to_mask, mask_to_elements, subset_str
from .operators import up_matrix
from .scd import ChainDecomposition, SubsetChain
from .vectors import Vector

FORMAT_VERSION = "1"

Serializable = Union[JordanBasis, ChainDecomposition]


class DocumentError(ValueError):
    """Document violates the schema or its structural invariants."""


def to_document(obj: Serializable) -> dict:
    """Plain-data document for a basis or decomposition."""
    if isinstance(obj, JordanBasis):
        chains = []
        for ch in obj.chains:
            vectors = [[{"subset": list(mask_to_elements(mask)), "coeff": str(c)}
                        for mask, c in v.items()]
                       for v in ch.vectors]
            chains.append({"start_rank": ch.start_rank, "vectors": vectors})
        return {"format_version": FORMAT_VERSION, "kind": "sjb", "n": obj.n,
                "chains": chains}
    if isinstance(obj, ChainDecomposition):
        chains = [{"start_rank": ch.start_rank,
                   "subsets": [list(mask_to_elements(s)) for s in ch.subsets]}
                  for ch in obj.chains]
        return {"format_version": FORMAT_VERSION, "kind": "scd", "n": obj.n,
                "chains": chains}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# The writer below emits exactly what json.dumps(to_document(obj), indent=2)
# prints, plus the trailing newline, without building either of them.  Each
# piece it yields is the header, one chain, or the closing brackets.

_TERM_OPEN = '          {\n            "subset": '
_COEFF_OPEN = ',\n            "coeff": "'
_TERM_CLOSE = '"\n          }'


def _list_text(items: list[str], indent: int) -> str:
    """A list of already indented item texts, closed at the given depth."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def _subset_text(mask: int, indent: int) -> str:
    pad = " " * (indent + 2)
    return _list_text([pad + str(e) for e in mask_to_elements(mask)], indent)


class _TermPrefixes(dict):
    """Text of a term up to its coefficient, per subset mask, made on first use."""

    def __missing__(self, mask: int) -> str:
        text = self[mask] = _TERM_OPEN + _subset_text(mask, 12) + _COEFF_OPEN
        return text


def _document_pieces(kind: str, n: int, key: str, chains):
    """Format-v1 text of (start_rank, text of the chain's list) pairs."""
    yield (f'{{\n  "format_version": "{FORMAT_VERSION}",\n  "kind": "{kind}",\n'
           f'  "n": {n},\n  "chains": ')
    sep = "[\n"
    for start, body in chains:
        yield f'{sep}    {{\n      "start_rank": {start},\n      "{key}": {body}\n    }}'
        sep = ",\n"
    yield "[]\n}\n" if sep == "[\n" else "\n  ]\n}\n"


def _sjb_chains(basis: JordanBasis):
    prefixes = _TermPrefixes()
    for ch in basis.chains:
        vectors = ["        " + _list_text([f"{prefixes[mask]}{c}{_TERM_CLOSE}"
                                            for mask, c in v.items()], 8)
                   for v in ch.vectors]
        yield ch.start_rank, _list_text(vectors, 6)


def _scd_chains(decomp: ChainDecomposition):
    for ch in decomp.chains:
        yield ch.start_rank, _list_text(["        " + _subset_text(s, 8)
                                         for s in ch.subsets], 6)


def _pieces(obj: Serializable):
    """The document text in pieces; raises TypeError before yielding any."""
    if isinstance(obj, JordanBasis):
        return _document_pieces("sjb", obj.n, "vectors", _sjb_chains(obj))
    if isinstance(obj, ChainDecomposition):
        return _document_pieces("scd", obj.n, "subsets", _scd_chains(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize(obj: Serializable) -> bytes:
    """Canonical bytes; equal objects yield identical bytes."""
    return "".join(_pieces(obj)).encode("ascii")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DocumentError(msg)


# The checks made once per term or subset raise directly instead of calling
# _require, whose message would be formatted even when the check passes.

def _parse_subset(raw, n: int) -> int:
    if not isinstance(raw, list):
        raise DocumentError(f"subset must be a list, got {type(raw).__name__}")
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in raw):
        raise DocumentError(f"subset elements must be integers: {raw!r}")
    if raw != sorted(set(raw)):
        raise DocumentError(f"subset must be sorted without repeats: {raw!r}")
    try:
        return elements_to_mask(raw, n)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _cached_subset(raw, n: int, masks: dict[tuple[int, ...], int]) -> int:
    """_parse_subset, run once per distinct list of plain ints.

    1, 1.0 and True are equal as dict keys, so only a list whose elements
    are all exactly int may use the cache; anything else takes the full
    check and raises the same DocumentError.
    """
    if type(raw) is not list or not all(type(e) is int for e in raw):
        return _parse_subset(raw, n)
    key = tuple(raw)
    mask = masks.get(key)
    if mask is None:
        mask = masks[key] = _parse_subset(raw, n)
    return mask


def _parse_coeff(raw) -> int:
    if not isinstance(raw, str):
        raise DocumentError(f"coeff must be a string, got {type(raw).__name__}")
    try:
        value = int(raw)
    except ValueError:
        raise DocumentError(f"coeff is not a decimal integer: {raw!r}") from None
    if str(value) != raw:
        raise DocumentError(f"coeff is not in canonical form: {raw!r}")
    if value == 0:
        raise DocumentError("zero coefficients must not be stored")
    return value


def from_document(doc) -> Serializable:
    """Rebuild a basis or decomposition, validating the schema."""
    _require(isinstance(doc, dict), "document must be an object")
    _require(doc.get("format_version") == FORMAT_VERSION,
             f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    _require(kind in ("sjb", "scd"), f"unknown kind {kind!r}")
    n = doc.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= 63,
             f"n must be an integer in 0..63, got {n!r}")
    chains_raw = doc.get("chains")
    _require(isinstance(chains_raw, list), "chains must be a list")

    if kind == "sjb":
        masks: dict[tuple[int, ...], int] = {}
        chains = []
        for ci, ch in enumerate(chains_raw):
            _require(isinstance(ch, dict), f"chain {ci} must be an object")
            start = ch.get("start_rank")
            _require(isinstance(start, int) and not isinstance(start, bool)
                     and 0 <= start <= n, f"chain {ci}: bad start_rank {start!r}")
            vectors_raw = ch.get("vectors")
            _require(isinstance(vectors_raw, list) and vectors_raw,
                     f"chain {ci}: vectors must be a non-empty list")
            vectors = []
            for vi, terms_raw in enumerate(vectors_raw):
                _require(isinstance(terms_raw, list) and terms_raw,
                         f"chain {ci} vector {vi}: terms must be a non-empty list")
                terms = {}
                for t in terms_raw:
                    if not (isinstance(t, dict) and t.keys() == {"subset", "coeff"}):
                        raise DocumentError(
                            f"chain {ci} vector {vi}: term must have subset and coeff")
                    mask = _cached_subset(t["subset"], n, masks)
                    if mask in terms:
                        raise DocumentError(
                            f"chain {ci} vector {vi}: repeated subset {t['subset']!r}")
                    terms[mask] = _parse_coeff(t["coeff"])
                vectors.append(Vector(n, terms))
            chains.append(JordanChain(n, start, vectors))
        return JordanBasis(n, chains)

    chains = []
    for ci, ch in enumerate(chains_raw):
        _require(isinstance(ch, dict), f"chain {ci} must be an object")
        start = ch.get("start_rank")
        _require(isinstance(start, int) and not isinstance(start, bool)
                 and 0 <= start <= n, f"chain {ci}: bad start_rank {start!r}")
        subsets_raw = ch.get("subsets")
        _require(isinstance(subsets_raw, list) and subsets_raw,
                 f"chain {ci}: subsets must be a non-empty list")
        subsets = [_parse_subset(s, n) for s in subsets_raw]
        chains.append(SubsetChain(n, subsets))
    return ChainDecomposition(n, chains)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None


def deserialize(data: bytes | str) -> Serializable:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return from_document(_parse_json(data))


def save(obj: Serializable, path) -> None:
    """Write the canonical bytes chain by chain, never holding the whole text."""
    pieces = _pieces(obj)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.writelines(pieces)


def load(path) -> Serializable:
    # The file's text is dropped once parsed, before the objects are built.
    with open(path, encoding="utf-8", newline="") as fh:
        doc = _parse_json(fh.read())
    return from_document(doc)


def export_up_matrix_csv(n: int, k: int, path) -> None:
    """0/1 matrix of up at rank k, with subset-labelled header row and column."""
    m = up_matrix(n, k)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([""] + [subset_str(s) for s in m.col_basis])
        for label, row in zip(m.row_basis, m.rows):
            writer.writerow([subset_str(label)] + row)
