"""Canonical document serialization and CSV matrix export.

Documents are JSON with a fixed key order, two-space indent, and a
trailing newline, so equal objects serialize to byte-identical files.
They are written and read chain by chain, so save() and load() hold one
chain's text at a time, never the whole document; save() takes the chains
as they come, so a basis whose chains are a generator is never held whole.
Subsets appear as sorted 1-indexed element lists and coefficients as
decimal strings, keeping files readable and safe for any consumer's
integer width.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import io
import json
import os
import re
import sys
from typing import Union

from .jordan import JordanBasis, JordanChain
from .lattice import HARD_CAP, check_ground_size, mask_to_elements, subset_str
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


@functools.cache
def _chunk_lines(indent: int) -> tuple[tuple[str, ...], ...]:
    """For each 8-bit chunk of a mask, the text of its elements' lines per byte value."""
    pad = " " * (indent + 2)
    return tuple(tuple(",\n".join(f"{pad}{8 * i + j + 1}" for j in range(8)
                                  if byte >> j & 1)
                       for byte in range(256)) for i in range((HARD_CAP + 7) // 8))


def _subset_text(mask: int, indent: int) -> str:
    lines = []
    for chunk in _chunk_lines(indent):
        if not mask:
            break
        if mask & 255:
            lines.append(chunk[mask & 255])
        mask >>= 8
    return _list_text(lines, indent)


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

_BIT = [0] + [1 << i for i in range(HARD_CAP)]  # _BIT[e]: element e's bit, e in 1..63


def _parse_subset(raw, n: int) -> int:
    if not isinstance(raw, list):
        raise DocumentError(f"subset must be a list, got {type(raw).__name__}")
    if not {int}.issuperset(map(type, raw)):  # bool is not int here
        raise DocumentError(f"subset elements must be integers: {raw!r}")
    if raw != sorted(set(raw)):
        raise DocumentError(f"subset must be sorted without repeats: {raw!r}")
    if raw and not 1 <= raw[0] <= raw[-1] <= n:  # sorted: its ends bound it
        bad = next(e for e in raw if not 1 <= e <= n)
        raise DocumentError(f"element {bad!r} outside 1..{n}")
    return sum(map(_BIT.__getitem__, raw))


_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")  # what str(int) prints


def _parse_coeff(raw) -> int:
    if not isinstance(raw, str):
        raise DocumentError(f"coeff must be a string, got {type(raw).__name__}")
    try:
        value = int(raw)
    except ValueError:
        if _CANONICAL_INT.fullmatch(raw):  # refused only for its length
            raise DocumentError(f"coeff has {len(raw.lstrip('-'))} digits, over the "
                                f"interpreter's limit of {sys.get_int_max_str_digits()}") from None
        raise DocumentError(f"coeff is not a decimal integer: {raw!r}") from None
    if not _CANONICAL_INT.fullmatch(raw):
        raise DocumentError(f"coeff is not in canonical form: {raw!r}")
    if value == 0:
        raise DocumentError("zero coefficients must not be stored")
    return value


def _trim(masks: dict, coeffs: dict) -> None:
    """Empty a parse cache past its size, set above what a built basis uses:
    2^14 subsets and 900 coefficients of at most 11 digits (n = 14)."""
    for cache, size in ((masks, 1 << 14), (coeffs, 1 << 10)):
        if len(cache) > size:
            cache.clear()


def _build(doc, chains=None):
    """Check doc's header and yield its (kind, n), then check, build and yield
    each of the decoded chains given (doc's if None) in turn."""
    _require(isinstance(doc, dict), "document must be an object")
    _require(doc.get("format_version") == FORMAT_VERSION,
             f"unsupported format_version {doc.get('format_version')!r}")
    kind, n = doc.get("kind"), doc.get("n")
    _require(kind in ("sjb", "scd"), f"unknown kind {kind!r}")
    check_ground_size(n)
    if chains is None:
        chains = doc.get("chains")
        _require(isinstance(chains, list), "chains must be a list")
    yield kind, n
    key = "vectors" if kind == "sjb" else "subsets"
    masks, coeffs = {}, {}  # one object per distinct mask or coefficient
    for ci, ch in enumerate(chains):
        if isinstance(ch, JordanChain):  # streamed, and checked by _Reader.canonical_chain
            yield ch
            continue
        _require(isinstance(ch, dict), f"chain {ci} must be an object")
        start = ch.get("start_rank")
        _require(type(start) is int and 0 <= start <= n, f"chain {ci}: bad start_rank {start!r}")
        items = ch.get(key)
        _require(isinstance(items, list) and items,
                 f"chain {ci}: {key} must be a non-empty list")
        if kind == "scd":
            chain = SubsetChain(n, [_parse_subset(s, n) for s in items])
            _require(chain.start_rank == start,
                     f"chain {ci}: start_rank {start} is not the rank "
                     f"{chain.start_rank} of its first subset")
            yield chain
            continue
        _trim(masks, coeffs)
        vectors = []
        for vi, terms_raw in enumerate(items):
            where = f"chain {ci} vector {vi}"
            _require(isinstance(terms_raw, list) and terms_raw,
                     f"{where}: terms must be a non-empty list")
            terms = {}
            for t in terms_raw:
                if not (isinstance(t, dict) and t.keys() == {"subset", "coeff"}):
                    raise DocumentError(f"{where}: term must have subset and coeff")
                mask = _parse_subset(t["subset"], n)
                if mask in terms:
                    raise DocumentError(f"{where}: repeated subset {t['subset']!r}")
                coeff = _parse_coeff(t["coeff"])
                terms[masks.setdefault(mask, mask)] = coeffs.setdefault(coeff, coeff)
            vectors.append(Vector._from_terms(n, terms))  # checked above
        yield JordanChain(n, start, vectors)


def _whole(stream) -> Serializable:
    """The basis or decomposition of a stream that yields (kind, n), then its chains."""
    kind, n = next(stream)
    return (JordanBasis if kind == "sjb" else ChainDecomposition)(n, list(stream))


def from_document(doc) -> Serializable:
    """Rebuild a basis or decomposition, validating the schema."""
    return _whole(_checked(_build(doc)))


_BLOCK = 1 << 16  # bytes (characters of a str) read from the file at a time
_DECODER = json.JSONDecoder()
# The decoder looks at most 8 characters past where it places a result (the "-"
# of -Infinity): one placed further from the end of the buffer than this stays.
_LOOKAHEAD = 16
_DIGITS = re.compile(r"[0-9]+")

# The writer's chain: head, vectors joined by _VECTOR_SEP, end and a delimiter.
_CHAIN_HEAD = re.compile(r'\{\n      "start_rank": (0|[1-9][0-9]?),\n'
                         r'      "vectors": \[\n        \[\n')
_VECTOR_SEP = "\n        ],\n        [\n"
_CHAIN_END = re.compile(r"\n        \]\n      \]\n    \}[ \t\n\r,:\]}]")
# Vector: _TERM_OPEN, terms joined by _TERM_SEP, _TERM_CLOSE.  Term: subset, _COEFF_OPEN, coeff
# ("" if _COEFF_OPEN is missing).  A separator has a newline and a quote; no valid piece has.
_TERM_SEP = _TERM_CLOSE + ",\n" + _TERM_OPEN


class _Utf8:
    """Text of a binary file, decoded as UTF-8 a block at a time; a decode
    error gives the byte's offset in the file, whatever the block size."""

    def __init__(self, fh):
        self.fh, self.pending, self.offset = fh, b"", 0

    def read(self, size: int) -> str:
        """The text of up to size more bytes; "" at the end."""
        while True:
            block = self.fh.read(size)
            data, final = self.pending + block, not block
            try:
                text, used = codecs.utf_8_decode(data, "strict", final)
            except UnicodeDecodeError as exc:
                start, end = self.offset + exc.start, self.offset + exc.end
                what = (f"byte 0x{data[exc.start]:02x} in position {start}"
                        if end - start == 1 else f"bytes in position {start}-{end - 1}")
                raise ValueError(f"'utf-8' codec can't decode {what}: {exc.reason}") from None
            self.pending, self.offset = data[used:], self.offset + used
            if text or final:
                return text


class _Reader:
    """JSON tokens of a text file read a block at a time, each refill dropping
    what has been consumed; text that is not JSON raises json.loads's error."""

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.origin = fh, "", 0, (0, 0, 0)  # origin: place(0)
        # Whether to try canonical_chain, and the subset and coeff texts it met.
        self.canonical, self.masks, self.coeffs = True, {}, {}
        self._fill()
        if self.buf.startswith("\ufeff"):  # json.loads refuses it before all else
            raise self.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)

    def _fill(self) -> bool:
        # Reading at least what is left keeps re-decoding long values linear.
        # At the end of the file the buffer stays, and with it error places.
        if not (block := self.fh.read(_BLOCK)):
            return False
        self.origin = self.place(self.pos)
        # Drop the old buffer before extending what is left of it, then append
        # a block at a time, in place: a refill holds one block beside it.
        rest, self.buf = self.buf[self.pos:], ""
        want = 2 * len(rest)
        rest += block
        while len(rest) < want and (block := self.fh.read(_BLOCK)):
            rest += block
        self.buf, self.pos = rest, 0
        return True

    def place(self, pos: int) -> tuple[int, int, int]:
        """Characters, newlines and column before buf[pos], in the whole text."""
        chars, lines, column = self.origin
        newline = self.buf.rfind("\n", 0, pos)
        return (chars + pos, lines + self.buf.count("\n", 0, pos),
                pos - newline - 1 if newline >= 0 else column + pos)

    def error(self, msg: str, pos: int | None = None) -> DocumentError:
        """json.loads's error for the whole text, placed at buf[pos]."""
        char, lines, column = self.place(self.pos if pos is None else pos)
        return DocumentError(f"not valid JSON: {msg}: line {lines + 1} "
                             f"column {column + 1} (char {char})")

    def peek(self) -> str:
        """The next non-whitespace character, or "" at the end of the file."""
        while True:
            self.pos = json.decoder.WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self._fill():
                return self.buf[self.pos:self.pos + 1]

    def take(self, chars: str) -> str:
        c = self.peek()
        if not c or c not in chars:
            raise self.error(f"Expecting {chars[0]!r} delimiter")
        self.pos += 1
        return c

    def value(self):
        """The next value, or its error, once more text cannot change it: a
        number (1|1, 1e|5) or a string cut at the end of the buffer is decoded
        again in full; an open string's error is placed at its start."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if (exc.pos + _LOOKAHEAD < len(self.buf)
                        and not exc.msg.startswith("Unterminated string")) or not self._fill():
                    raise self.error(exc.msg, exc.pos) from None
                continue
            except ValueError:  # an integer past the digit limit, counted in its message
                # Only a buffer ending in more digits than the limit may cut it short.
                tail = len(self.buf) - sys.get_int_max_str_digits() - 1
                if tail < self.pos or not _DIGITS.fullmatch(self.buf, tail) or not self._fill():
                    raise
                continue
            if end + _LOOKAHEAD < len(self.buf) or not self._fill():
                self.pos = end
                return value

    def canonical_chain(self, n: int) -> JordanChain | None:
        """The next chain if it is an sjb chain as the writer prints it, its
        terms checked as _build checks them; else None, consuming nothing.
        One with the writer's head but not its end is read to the next head."""
        if not self.canonical or self.peek() != "{":
            return None
        while len(self.buf) - self.pos < 64 and self._fill():  # 64 > any head
            pass
        head = _CHAIN_HEAD.match(self.buf, self.pos)
        if head is None or int(head[1]) > n:
            return None
        # A match holds its string: keeping one across a refill keeps the old buffer.
        start_rank, body, head = int(head[1]), len(head[0]), None
        self.canonical = False  # a refusal may scan a block: refuse only once
        done = body  # text after pos searched, less what a match may straddle
        while (end := _CHAIN_END.search(self.buf, self.pos + done)) is None:
            if self.buf.find('"start_rank"', self.pos + done) >= 0:
                return None
            done = max(body, len(self.buf) - self.pos - 32)  # 32 > either pattern
            if not self._fill():
                return None
        _trim(self.masks, self.coeffs)
        buf, vectors, start, stop = self.buf, [], self.pos + body, end.start()
        try:
            while start <= stop:
                cut = buf.find(_VECTOR_SEP, start, stop)
                text = buf[start:stop if cut < 0 else cut]
                if not (text.startswith(_TERM_OPEN) and text.endswith(_TERM_CLOSE)):
                    return None
                subsets, _, coeff_texts = zip(*[t.partition(_COEFF_OPEN) for t in text[
                    len(_TERM_OPEN):-len(_TERM_CLOSE)].split(_TERM_SEP)])
                for t in set(subsets).difference(self.masks):
                    self.masks[t] = _parse_subset(json.loads(t), n)
                for t in set(coeff_texts).difference(self.coeffs):
                    self.coeffs[t] = _parse_coeff(t)
                terms = dict(zip(map(self.masks.get, subsets),
                                 map(self.coeffs.get, coeff_texts)))
                if len(terms) != len(subsets):  # a repeated subset
                    return None
                vectors.append(Vector._from_terms(n, terms))
                start += len(text) + len(_VECTOR_SEP)
        except (ValueError, RecursionError):  # a failed check, not JSON
            return None
        self.canonical, self.pos = True, end.end() - 1
        return JordanChain(n, start_rank, vectors)

    def members(self, close: str):
        """Yield once per member of the object or array just opened."""
        sep = "," if self.peek() != close else self.take(close)
        while sep == ",":
            yield
            sep = self.take("," + close)


def _walk(fh):
    """Yield the header's (kind, n), then each chain as it is built.  The chains
    of a top-level object whose header comes first are built as they are
    decoded; any other layout is decoded whole before the header is yielded."""
    reader = _Reader(fh)
    doc, streamed = {}, False
    if reader.peek() != "{":
        doc = reader.value()
    else:
        reader.take("{")
        for _ in reader.members("}"):
            if reader.peek() != '"':
                raise reader.error("Expecting property name enclosed in double quotes")
            key = reader.value()
            # json.loads keeps the last of repeated keys; streamed chains cannot.
            _require(key not in doc, f"repeated top-level key {key!r}")
            reader.take(":")
            if (key == "chains" and {"format_version", "kind", "n"} <= doc.keys()
                    and reader.peek() == "["):
                reader.take("[")
                chains = (doc["kind"] == "sjb" and reader.canonical_chain(doc["n"])
                          or reader.value() for _ in reader.members("]"))
                yield from _build(doc, chains)
                doc[key] = streamed = True
            else:
                doc[key] = reader.value()
    if reader.peek():
        raise reader.error("Extra data")
    if not streamed:
        yield from _build(doc)


def _checked(stream, raw=contextlib.nullcontext()):
    """What stream yields, raising every fault as a DocumentError; raw, the
    file under stream, is closed once the stream ends."""
    with raw:
        try:
            yield from stream
        except (ValueError, RecursionError) as exc:
            # Other than a DocumentError, these are a header n that check_ground_size
            # refuses, bytes that are not UTF-8, an integer past the digit limit
            # (sys.get_int_max_str_digits), or values nested deeper than the decoders recurse.
            raise exc if isinstance(exc, DocumentError) else DocumentError(str(exc)) from None


def _read(fh) -> Serializable:
    return _whole(_checked(_walk(fh)))


class _Whole(list):
    """A str as one block, which _Reader keeps without a copy: "" + s is s."""

    def read(self, size: int) -> str:
        return self.pop() if self else ""


def deserialize(data: bytes | str) -> Serializable:
    return _read(_Utf8(io.BytesIO(data)) if isinstance(data, bytes) else _Whole([data]))


@contextlib.contextmanager
def _replacing(path):
    """A new text file beside path, moved onto path once the block is done;
    if the block fails, the file is removed and path is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="ascii", newline="")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # named by path, as tmp's name holds the pid, unless tmp is in the way
        raise (exc if exc.filename != tmp or isinstance(exc, FileExistsError)
               else OSError(exc.errno, exc.strerror, os.fspath(path)))


def save(obj: Serializable, path) -> None:
    """Stream the canonical text to a file beside path, then move it onto path.

    obj's chains may be any iterable, such as jordan.sjb_chains(n): each is
    written as it comes.  If they fail midway, path is left as it was.
    """
    pieces = _pieces(obj)
    with _replacing(path) as fh:
        fh.writelines(pieces)


def read_chains(path):
    """(kind, n, chains) of the document at path, its header checked.

    chains yields each chain as it is read and checked, holding one block of
    the text; once it is exhausted the rest of the document has been checked
    too, and the file closed (chains.close() closes it sooner).  Any fault
    raises DocumentError, at the header or from chains.
    """
    fh = open(path, "rb")
    stream = _checked(_walk(_Utf8(fh)), fh)
    kind, n = next(stream)
    return kind, n, stream


def load(path) -> Serializable:
    """Read a document chain by chain, holding one block of its text."""
    with open(path, "rb") as fh:
        return _read(_Utf8(fh))


def export_up_matrix_csv(n: int, k: int, path) -> None:
    """0/1 matrix of up at rank k, with subset-labelled header row and column,
    written as save() writes: if the writing fails, path is left as it was."""
    m = up_matrix(n, k)
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([""] + [subset_str(s) for s in m.col_basis])
        # One row's list at a time: the whole matrix as lists would double it.
        for label, row in zip(m.row_basis, m.matrix):
            writer.writerow([subset_str(label)] + row.tolist())
