"""Canonical documents: round trips, golden files, schema rejection."""

import contextlib
import csv
import errno
import io
import itertools
import json
import os
import re
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sjb.serialize as serialize_module
from sjb.cli import main
from sjb.jordan import JordanBasis, JordanChain, build_sjb
from sjb.lattice import CapacityError, check_ground_size
from sjb.scd import ChainDecomposition, SubsetChain, build_scd
from sjb.vectors import Vector
from sjb.serialize import (DocumentError, deserialize, export_up_matrix_csv,
                           from_document, load, read_chains, save, serialize,
                           to_document)

GOLDEN = Path(__file__).parent / "golden"


def test_document_n0():
    doc = to_document(build_sjb(0))
    assert doc == {"format_version": "1", "kind": "sjb", "n": 0,
                   "chains": [{"start_rank": 0,
                               "vectors": [[{"subset": [], "coeff": "1"}]]}]}


def test_document_n2_matches_hand_derivation():
    doc = to_document(build_sjb(2))
    assert doc["chains"] == [
        {"start_rank": 0, "vectors": [
            [{"subset": [], "coeff": "1"}],
            [{"subset": [1], "coeff": "1"}, {"subset": [2], "coeff": "1"}],
            [{"subset": [1, 2], "coeff": "2"}],
        ]},
        {"start_rank": 1, "vectors": [
            [{"subset": [1], "coeff": "-1"}, {"subset": [2], "coeff": "1"}],
        ]},
    ]


def test_scd_document_n2():
    doc = to_document(build_scd(2))
    assert doc["kind"] == "scd"
    assert doc["chains"] == [
        {"start_rank": 0, "subsets": [[], [1], [1, 2]]},
        {"start_rank": 1, "subsets": [[2]]},
    ]


@pytest.mark.parametrize("n", range(11))
def test_round_trip_sjb(n):
    basis = build_sjb(n)
    data = serialize(basis)
    back = deserialize(data)
    assert back == basis
    assert serialize(back) == data


@pytest.mark.parametrize("n", range(11))
def test_round_trip_scd(n):
    decomp = build_scd(n)
    data = serialize(decomp)
    back = deserialize(data)
    assert back == decomp
    assert serialize(back) == data


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["sjb", "scd"])
def test_golden_files_byte_stable(n, kind):
    build = build_sjb if kind == "sjb" else build_scd
    expected = (GOLDEN / f"{kind}_n{n}.json").read_bytes()
    assert serialize(build(n)) == expected


def dumps_oracle(obj):
    """Format v1 as the standard encoder prints the plain-data document."""
    return (json.dumps(to_document(obj), indent=2) + "\n").encode()


@pytest.mark.parametrize("n", range(11))
def test_writer_matches_json_dumps(n):
    assert serialize(build_sjb(n)) == dumps_oracle(build_sjb(n))
    assert serialize(build_scd(n)) == dumps_oracle(build_scd(n))


@pytest.mark.parametrize("obj", [
    JordanBasis(3, []),
    JordanBasis(0, []),
    ChainDecomposition(4, []),
    ChainDecomposition(0, [SubsetChain(0, [0])]),
    JordanBasis(2, [JordanChain(2, 1, [Vector(2)])]),
    JordanBasis(2, [JordanChain(2, 0, [])]),
    JordanBasis(3, [JordanChain(3, 1, [Vector(3, {0b001: -5, 0b100: 3}),
                                       Vector(3, {0b011: -(1 << 64) - 7,
                                                  0b110: (1 << 200) + 1})])]),
], ids=["no-chains", "no-chains-n0", "scd-no-chains", "scd-n0", "no-terms",
        "no-vectors", "signed-and-huge"])
def test_writer_matches_json_dumps_edge_cases(obj):
    assert serialize(obj) == dumps_oracle(obj)


def bases_over(n):
    """Arbitrary chains of arbitrary vectors; the writer must not assume a basis."""
    terms = st.dictionaries(st.integers(0, (1 << n) - 1),
                            st.integers(-(1 << 80), 1 << 80).filter(bool), max_size=6)
    chain = st.builds(JordanChain, st.just(n), st.integers(0, n),
                      st.lists(terms.map(lambda t: Vector(n, t)), max_size=3))
    return st.builds(JordanBasis, st.just(n), st.lists(chain, max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(bases_over))
def test_writer_matches_json_dumps_random(basis):
    assert serialize(basis) == dumps_oracle(basis)


@settings(max_examples=100, deadline=None)
@given(bases_over(63), st.lists(st.lists(st.integers(0, (1 << 63) - 1), min_size=1,
                                         max_size=4), max_size=4))
def test_writer_matches_json_dumps_on_every_element(basis, subsets):
    # Subsets over all 63 elements use every 8-bit chunk of the writer's tables.
    assert serialize(basis) == dumps_oracle(basis)
    decomp = ChainDecomposition(63, [SubsetChain(63, s) for s in subsets])
    assert serialize(decomp) == dumps_oracle(decomp)


@pytest.mark.parametrize("obj", [build_sjb(7), build_scd(7), JordanBasis(1, [])])
def test_save_writes_serialize_bytes(tmp_path, obj):
    path = tmp_path / "doc.json"
    save(obj, path)
    assert path.read_bytes() == serialize(obj)


def test_save_rejects_other_objects_before_opening(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        save({"n": 1}, path)
    assert not path.exists()


def test_to_document_rejects_other_objects():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        to_document(object())


def test_save_load(tmp_path):
    basis = build_sjb(4)
    path = tmp_path / "b.json"
    save(basis, path)
    assert load(path) == basis


def _valid_doc():
    return json.loads(serialize(build_sjb(2)))


def test_rejects_zero_coefficient():
    doc = _valid_doc()
    doc["chains"][0]["vectors"][0][0]["coeff"] = "0"
    with pytest.raises(DocumentError):
        from_document(doc)


def test_rejects_non_canonical_coefficients():
    for bad in ("+1", "01", "-0", "1.5", "two", ""):
        doc = _valid_doc()
        doc["chains"][0]["vectors"][0][0]["coeff"] = bad
        with pytest.raises(DocumentError):
            from_document(doc)


def _round_trip_verdict(raw: str):
    """What _parse_coeff made of raw when it checked str(int(raw)) == raw."""
    try:
        value = int(raw)
    except ValueError:
        return f"coeff is not a decimal integer: {raw!r}"
    if str(value) != raw:
        return f"coeff is not in canonical form: {raw!r}"
    return value or "zero coefficients must not be stored"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789-+_ \u0663", max_size=8))
@example("-0")
@example("00")
@example("+5")
@example(" 5")
@example("1_0")
@example("\u0663")
@example("0")
@example("-7")
def test_coefficient_pattern_accepts_what_the_round_trip_accepted(raw):
    try:
        verdict = serialize_module._parse_coeff(raw)
    except DocumentError as exc:
        verdict = str(exc)
    assert verdict == _round_trip_verdict(raw)


def test_coefficient_at_the_digit_limit_reads_and_verifies(tmp_path, capsys):
    # A chain scaled by one constant keeps its links, ratios and ranks.
    c = -(10 ** (sys.get_int_max_str_digits() - 1) + 7)
    basis = build_sjb(2)
    basis.chains[0].vectors[:] = [c * v for v in basis.chains[0].vectors]
    path = tmp_path / "big.json"
    save(basis, path)
    assert load(path) == basis
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")


def test_rejects_bad_version_and_kind():
    doc = _valid_doc()
    doc["format_version"] = "2"
    with pytest.raises(DocumentError):
        from_document(doc)
    doc = _valid_doc()
    doc["kind"] = "mystery"
    with pytest.raises(DocumentError):
        from_document(doc)


def test_rejects_malformed_subsets():
    for bad in ([2, 1], [1, 1], [0], [3], ["x"]):
        doc = _valid_doc()
        doc["chains"][0]["vectors"][0][0]["subset"] = bad
        with pytest.raises(DocumentError):
            from_document(doc)


@pytest.mark.parametrize("raw, message", [
    ([], 0),
    ([1, 3, 4], 0b1101),
    ([4], 0b1000),
    ("1", "subset must be a list, got str"),
    ([1, False], "subset elements must be integers: [1, False]"),
    ([1, 2.0], "subset elements must be integers: [1, 2.0]"),
    ([1, None, 0], "subset elements must be integers: [1, None, 0]"),
    ([3, 1], "subset must be sorted without repeats: [3, 1]"),
    ([1, 70, 3], "subset must be sorted without repeats: [1, 70, 3]"),
    ([2, 2], "subset must be sorted without repeats: [2, 2]"),
    ([0, 2], "element 0 outside 1..4"),
    ([-3, 1], "element -3 outside 1..4"),
    ([1, 5], "element 5 outside 1..4"),
    ([5, 6, 70], "element 5 outside 1..4"),
    ([2, 3, 1 << 70], f"element {1 << 70} outside 1..4"),
])
def test_subset_checks_keep_their_messages(raw, message):
    # The mask is read from a bit table once the ends are in range; the
    # messages are those of the element-by-element check.
    if isinstance(message, int):
        assert serialize_module._parse_subset(raw, 4) == message
        return
    with pytest.raises(DocumentError) as exc:
        serialize_module._parse_subset(raw, 4)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad, message", [
    ([True], "subset elements must be integers: [True]"),
    ([1.0], "subset elements must be integers: [1.0]"),
    ([1, 1], "subset must be sorted without repeats: [1, 1]"),
])
def test_cached_subset_does_not_admit_equal_lookalikes(bad, message):
    # Chain 0 holds the valid subset [1] first; 1, 1.0 and True are equal
    # as keys, so a later lookalike must still take the full check.
    doc = _valid_doc()
    assert doc["chains"][0]["vectors"][1][0]["subset"] == [1]
    doc["chains"][1]["vectors"][0][0]["subset"] = bad
    with pytest.raises(DocumentError) as exc:
        from_document(doc)
    assert str(exc.value) == message


def test_rejects_repeated_subset_in_vector():
    doc = _valid_doc()
    vec = doc["chains"][0]["vectors"][1]
    vec[1] = {"subset": [1], "coeff": "3"}
    with pytest.raises(DocumentError):
        from_document(doc)


def test_rejects_structurally_broken_documents():
    with pytest.raises(DocumentError):
        deserialize(b"not json")
    with pytest.raises(DocumentError):
        from_document(["list"])
    doc = _valid_doc()
    doc["n"] = "2"
    with pytest.raises(DocumentError):
        from_document(doc)
    doc = _valid_doc()
    doc["chains"][0]["vectors"] = []
    with pytest.raises(DocumentError):
        from_document(doc)
    doc = _valid_doc()
    doc["chains"][0]["start_rank"] = 5
    with pytest.raises(DocumentError):
        from_document(doc)


def test_rejects_scd_start_rank_other_than_its_first_subset():
    doc = json.loads((GOLDEN / "scd_n3.json").read_text())
    doc["chains"][1]["start_rank"] = 0
    message = "chain 1: start_rank 0 is not the rank 1 of its first subset"
    with pytest.raises(DocumentError, match=message):
        from_document(doc)
    with pytest.raises(DocumentError, match=message):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("text", [
    # In the top-level object: the header value is decoded on its own.
    '{"format_version": "1", "kind": "sjb", "n": %s, "chains": []}' % ("1" * 5000),
    # Not an object, so decoded whole as one value.
    "[%s]" % ("1" * 5000),
    # Decoded with its chain.
    '{"format_version": "1", "kind": "sjb", "n": 2, "chains": [{"start_rank": %s, '
    '"vectors": []}]}' % ("1" * 5000),
    # The first is worded, even when the buffer ends inside the second.
    "[%s, %s]" % ("1" * 5000, "2" * 6000),
], ids=["header-value", "top-level-value", "chain-value", "two-in-a-row"])
def test_oversized_integer_literal_is_a_document_error(tmp_path, monkeypatch, text):
    with pytest.raises(ValueError) as plain:
        json.loads(text)
    path = tmp_path / "big.json"
    path.write_text(text)
    # The buffer ends before, inside and after each literal in turn.
    for block in (1, 64, *range(4000, 12000, 250), 1 << 20):
        monkeypatch.setattr(serialize_module, "_BLOCK", block)
        for read in (lambda: deserialize(text), lambda: load(path)):
            with pytest.raises(DocumentError) as exc:
                read()
            assert str(exc.value) == str(plain.value), block


def test_complete_oversized_integer_is_worded_before_the_rest(tmp_path, monkeypatch):
    # The buffer does not end in the literal, so more text cannot change its count.
    text = '{"format_version": "1", "kind": "sjb", "n": %s, "chains": [%s]}' % (
        "1" * 5000, ", ".join(["0"] * 1_000_000))
    path = tmp_path / "big.json"
    path.write_text(text)
    monkeypatch.setattr(serialize_module, "_BLOCK", 1 << 16)
    read, real = [], serialize_module._Utf8.read

    def counted(self, size):
        block = real(self, size)
        read.append(len(block))
        return block

    monkeypatch.setattr(serialize_module._Utf8, "read", counted)
    with pytest.raises(DocumentError, match="value has 5000 digits"):
        load(path)
    assert sum(read) <= 1 << 16 < len(text) // 40


def test_non_utf8_file_is_a_document_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": "1", "kind": "scd", "n": 0, "chains": ["\xff"]}')
    with pytest.raises(DocumentError, match="can't decode byte 0xff"):
        load(path)


def test_accepts_algebraically_wrong_but_well_formed():
    # Verification failures are the verifier's to report, not the parser's.
    doc = _valid_doc()
    doc["chains"][0]["vectors"][2][0]["coeff"] = "3"
    obj = from_document(doc)
    assert obj.chains[0].vectors[2].coeff(0b11) == 3


def test_export_up_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    export_up_matrix_csv(2, 0, path)
    assert path.read_text() == ",{}\n{1},1\n{2},1\n"

    path31 = tmp_path / "m31.csv"
    export_up_matrix_csv(3, 1, path31)
    lines = path31.read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == ""
    rows = [line.split(",")[-3:] for line in lines[1:]]
    for row in rows:
        assert sum(int(x) for x in row) == 2
    for j in range(3):
        assert sum(int(row[j]) for row in rows) == 2

    path21 = tmp_path / "m21.csv"
    export_up_matrix_csv(2, 1, path21)
    body = path21.read_text().splitlines()[1]
    assert body.endswith(",1,1")


def test_failed_export_leaves_target_untouched(tmp_path, monkeypatch):
    # A writer that runs out of room at its third row, naming the file it writes.
    path = tmp_path / "m.csv"
    export_up_matrix_csv(3, 1, path)
    before = path.read_bytes()

    def failing_writer(fh, **kwargs):
        writer, rows = csv.writer(fh, **kwargs), itertools.count(1)

        def writerow(row):
            if next(rows) == 3:
                raise OSError(errno.ENOSPC, "No space left on device", fh.name)
            writer.writerow(row)
        return types.SimpleNamespace(writerow=writerow)

    monkeypatch.setattr(serialize_module, "csv", types.SimpleNamespace(writer=failing_writer))
    with pytest.raises(OSError) as failure:
        export_up_matrix_csv(8, 3, path)
    assert failure.value.filename == str(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.csv"]


def test_export_rejects_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        export_up_matrix_csv(2, 2, tmp_path / "x.csv")


# The streamed reader against its oracle, from_document(json.loads(text)).

def oracle(text: str):
    """The object from_document(json.loads(text)) builds, or its DocumentError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return DocumentError(f"not valid JSON: {exc}")
    try:
        return from_document(doc)
    except DocumentError as exc:
        return exc


def streamed(text: str):
    try:
        return deserialize(text)
    except DocumentError as exc:
        return exc


def repeats_top_level_key(text: str) -> bool:
    """Whether valid JSON text repeats a key of its top-level object."""
    pairs = json.loads(text, object_pairs_hook=lambda pairs: pairs)
    keys = [k for k, _ in pairs] if isinstance(pairs, list) else []
    return len(keys) != len(set(keys))


def assert_matches_oracle(text: str, same_message: bool = True):
    want, got = oracle(text), streamed(text)
    if str(got).startswith("repeated top-level key"):
        # json.loads keeps the last value; the stream refuses the document.
        assert isinstance(got, DocumentError)
        assert str(want).startswith("not valid JSON") or repeats_top_level_key(text)
    elif isinstance(want, DocumentError):
        assert isinstance(got, DocumentError), (text, got)
        # A text invalid both as JSON and in its schema may report either.
        if same_message or str(got).startswith("not valid JSON"):
            assert str(got) == str(want), text
    else:
        assert type(got) is type(want) and got == want


def layouts(obj) -> list[str]:
    """The same document as canonical, compact, key-sorted (chains first),
    CRLF and padded text, and with unknown keys around the chains."""
    doc = to_document(obj)
    extra = {"note": {"chains": [1, 2]}, **doc, "trailer": [1.5e3, None, True, "}"]}
    return [serialize(obj).decode(),
            json.dumps(doc, separators=(",", ":")),
            json.dumps(doc, sort_keys=True),
            serialize(obj).decode().replace("\n", "\r\n"),
            " \t\n" + json.dumps(doc) + " \n\n",
            json.dumps(extra)]


@pytest.mark.parametrize("n", range(10))
def test_stream_matches_oracle_sjb(n):
    for text in layouts(build_sjb(n)):
        assert_matches_oracle(text)
        assert deserialize(text) == build_sjb(n)


@pytest.mark.parametrize("n", range(13))
def test_stream_matches_oracle_scd(n):
    for text in layouts(build_scd(n)):
        assert_matches_oracle(text)
        assert deserialize(text) == build_scd(n)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_stream_matches_oracle_goldens(path):
    assert_matches_oracle(path.read_text())
    assert load(path) == oracle(path.read_text())


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_stream_refills_inside_tokens(monkeypatch, block):
    # Refills land inside numbers ("n": 1|0), strings, keys and literals.
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    for obj in (build_sjb(5), build_scd(10), JordanBasis(12, [])):
        for text in layouts(obj):
            assert_matches_oracle(text)
    assert_matches_oracle('{"n": 1e1, "kind": "sjb", "format_version": "1", "chains": []}')
    assert_matches_oracle('{"format_version": "1", "kind": "sjb", "n": 10, "chains": {}}')


@pytest.mark.parametrize("text", [
    "", "   ", "[]", '"sjb"', "12", "null", "true", "[1, 2", "{", "{}", "{} {}",
    '{"a": 1,}', '{"a" 1}', "{1: 2}", '{"a": 1} x', '\ufeff{"a": 1}', "{'a': 1}",
    '{"a": 1, "a": 2}', '{"chains": [], "chains": []}',
    '{"format_version": "1", "kind": "sjb", "n": 1, "chains": [], "n": 1}',
    '{"format_version": "1", "kind": "sjb", "n": 0, "chains": [,]}',
    '{"format_version": "1", "kind": "sjb", "n": 0, "chains": [{"start_rank": 0,}]}',
    '{"format_version": "1", "kind": "sjb", "n": 0, "chains": [] ]}',
    '{"format_version": "1", "kind": "sjb", "n": 0, "chains": []}}',
    '{"format_version": "1", "kind": "sjb", "n": 0, "chains": "[]"}',
    '{"format_version": "2", "kind": "sjb", "n": 0, "chains": []}',
    '{"format_version": "1", "kind": "sjb", "n": 64, "chains": []}',
    '{"format_version": "1", "kind": "sjb", "n": 01, "chains": []}',
], ids=repr)
def test_stream_matches_oracle_on_malformed_text(text):
    assert_matches_oracle(text)


def test_schema_error_may_precede_json_error():
    # Chain 0 is built, and refused, before the stray comma is reached.
    text = '{"format_version": "1", "kind": "sjb", "n": 0, "chains": [1,]}'
    assert str(oracle(text)) == "not valid JSON: Expecting value: line 1 column 61 (char 60)"
    assert str(streamed(text)) == "chain 0 must be an object"


@pytest.mark.parametrize("tail", ["x", "{}", "]", ",", "\n}", "\u00e9"])
def test_trailing_garbage_is_not_valid_json(tail):
    text = serialize(build_sjb(3)).decode() + tail
    assert str(streamed(text)).startswith("not valid JSON: Extra data")
    assert_matches_oracle(text)


@pytest.mark.parametrize("block", [3, 1 << 20])
def test_every_truncation_raises_json_error(monkeypatch, block):
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    text = serialize(build_sjb(3)).decode().rstrip()
    for cut in range(len(text)):
        got = streamed(text[:cut])
        assert isinstance(got, DocumentError), cut
        assert str(got) == str(oracle(text[:cut])), cut


def test_repeated_top_level_key_is_rejected(tmp_path, capsys):
    text = '{"format_version": "1", "kind": "scd", "kind": "sjb", "n": 0, "chains": []}'
    assert isinstance(oracle(text), JordanBasis)  # json.loads keeps the last
    with pytest.raises(DocumentError, match="repeated top-level key 'kind'"):
        deserialize(text)
    path = tmp_path / "dup.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert "repeated top-level key 'kind'" in capsys.readouterr().err


def test_read_chains_yields_each_chain_before_the_rest_is_read(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize_module, "_BLOCK", 1 << 12)
    basis = build_sjb(8)
    text = serialize(basis).decode()
    path = tmp_path / "b8.json"
    path.write_text(text + "x")  # "Extra data" after 1.4 MB of chains
    kind, n, chains = read_chains(path)
    assert (kind, n) == ("sjb", 8)
    assert next(chains) == basis.chains[0] and next(chains) == basis.chains[1]
    with pytest.raises(DocumentError) as exc:
        list(chains)
    assert str(exc.value) == str(oracle(text + "x"))
    path.write_text(text)
    kind, n, chains = read_chains(path)
    assert JordanBasis(n, list(chains)) == basis == load(path)


@pytest.mark.parametrize("text, message", [
    ('{"format_version": "1", "kind": "sjb", "n": 64, "chains": [1, 2', "ground set size must be"),
    ('{"chains": [], "format_version": "1", "kind": "sjb", "n": 3} x', "not valid JSON"),
    ('[1, 2]', "document must be an object"),
], ids=["header", "chains-first", "not-an-object"])
def test_read_chains_refuses_a_bad_header_at_once(tmp_path, text, message):
    # A header that streams is checked before any chain is read; any other
    # layout is read whole first, as load reads it.
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(DocumentError, match=message) as exc:
        read_chains(path)
    assert str(load_or_error(path)) == str(exc.value)


@pytest.mark.parametrize("n", [-1, 64, True, "2", 1.0, None])
def test_every_reader_refuses_a_bad_header_n_as_check_ground_size_does(tmp_path, capsys, n):
    with pytest.raises(CapacityError) as refusal:
        check_ground_size(n)
    doc = {"format_version": "1", "kind": "sjb", "n": n, "chains": []}
    text = json.dumps(doc)
    path = tmp_path / "bad.json"
    path.write_text(text)
    for read, arg in ((from_document, doc), (deserialize, text.encode()), (deserialize, text),
                      (load, path), (read_chains, path)):
        with pytest.raises(DocumentError) as exc:
            read(arg)
        assert str(exc.value) == str(refusal.value), read.__name__
    if n == 64:
        assert main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ground set size must be in 0..63, got 64\n"


def test_read_chains_of_chains_before_the_header(tmp_path):
    basis = build_sjb(4)
    path = tmp_path / "sorted.json"
    path.write_text(json.dumps(to_document(basis), sort_keys=True))
    kind, n, chains = read_chains(path)
    assert (kind, n) == ("sjb", 4) and list(chains) == basis.chains


def test_json_error_reports_file_positions(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize_module, "_BLOCK", 64)
    text = serialize(build_sjb(5)).decode()
    cut = text.rindex('"coeff"')
    bad = text[:cut] + "coeff" + text[cut + 7:]
    path = tmp_path / "bad.json"
    path.write_text(bad)
    with pytest.raises(DocumentError) as exc:
        load(path)
    assert str(exc.value) == str(oracle(bad))
    assert f"(char {cut})" in str(exc.value)


MUTATION_CHARS = '{}[],:"0123456789-.e tnrufalsjbc\n\\'


def small_documents():
    return [serialize(obj).decode() for obj in (build_sjb(2), build_scd(2))]


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(small_documents()))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        c = draw(st.sampled_from(MUTATION_CHARS))
        if op == "insert":
            text = text[:i] + c + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_documents(), st.sampled_from([1, 5, 1 << 20]))
def test_stream_matches_oracle_on_mutated_documents(text, block):
    old = serialize_module._BLOCK
    serialize_module._BLOCK = block
    try:
        assert_matches_oracle(text, same_message=False)
    finally:
        serialize_module._BLOCK = old


def test_load_memory_is_bounded_by_a_block(tmp_path, monkeypatch):
    # The parent's json.loads of the whole file peaked near 3x its size.
    path = tmp_path / "b9.json"
    save(build_sjb(9), path)
    monkeypatch.setattr(serialize_module, "_BLOCK", 1 << 16)
    tracemalloc.start()
    try:
        basis = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.n == 9 and len(basis.chains) == 126
    assert peak < path.stat().st_size / 2


def test_json_scanned_chains_share_their_ints(tmp_path):
    # A layout other than the writer's is read by the JSON scanner, which
    # shares equal masks and coefficients as the writer's reader does.
    basis = build_sjb(9)
    paths = {"canonical": tmp_path / "s.json", "compact": tmp_path / "c.json"}
    save(basis, paths["canonical"])
    paths["compact"].write_text(json.dumps(to_document(basis), separators=(",", ":")))
    held = {}
    for layout, path in paths.items():
        tracemalloc.start()
        try:
            loaded = load(path)
            held[layout], _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == basis
        del loaded
    assert held["compact"] < held["canonical"] * 1.2


@pytest.mark.parametrize("layout", ["writer", "compact"])
def test_distinct_coefficients_are_not_all_kept(tmp_path, layout):
    # Every coefficient differs, so a parse cache that kept each one would
    # hold the document's coefficient texts and values: the parent's reader
    # peaked at 1.3x the file's size in the writer's layout, 0.5x compact.
    basis = JordanBasis(4, [JordanChain(4, 2, [Vector(4, {3: 10 ** 999 + i})])
                            for i in range(8000)])
    path = tmp_path / "coeffs.json"
    if layout == "writer":
        save(basis, path)
    else:
        path.write_text(json.dumps(to_document(basis)))
    del basis
    tracemalloc.start()
    try:
        for _ in read_chains(path)[2]:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_deserialize_reads_a_str_in_place():
    # io.StringIO would copy the text at 4 bytes per character.
    text = serialize(build_sjb(10)).decode()
    tracemalloc.start()
    try:
        basis = deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.n == 10 and len(basis.chains) == 252
    assert peak < len(text) / 2


def spoiled(text: str, how: str) -> str:
    """The text cut at 3/4 of its length, or with a "coeff" key unquoted near 1/4."""
    if how == "cut":
        return text[:len(text) * 3 // 4]
    at = text.index('"coeff"', len(text) // 4)
    return text[:at] + "coeff" + text[at + 7:]


@pytest.mark.parametrize("how", ["cut", "unquoted-key"])
def test_bad_document_costs_one_chain_not_the_file(tmp_path, monkeypatch, how):
    # The error is worded where the reader meets it: no second, whole read.
    text = spoiled(serialize(build_sjb(9)).decode(), how)
    path = tmp_path / "bad.json"
    path.write_text(text)
    monkeypatch.setattr(serialize_module, "_BLOCK", 1 << 16)
    tracemalloc.start()
    try:
        got = load_or_error(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(got) == str(oracle(text)) and str(got).startswith("not valid JSON")
    assert peak < path.stat().st_size / 2


def test_chain_ends_outside_the_layout_cost_one_chain_not_the_file(tmp_path, monkeypatch):
    # Every chain's closing brace is one space deeper: each has the writer's
    # head but not its end, so the first is read up to the next chain's head.
    path = tmp_path / "b9.json"
    save(build_sjb(9), path)
    text = re.sub(r"(?m)^    \}(,?)$", r"     }\1", path.read_text())
    path.write_text(text)
    monkeypatch.setattr(serialize_module, "_BLOCK", 1 << 16)
    tracemalloc.start()
    try:
        basis = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis == from_document(json.loads(text))
    assert peak < path.stat().st_size / 2


def single_edits(text: str):
    """Every deletion of one character, and every replacement of one by a
    MUTATION_CHARS character."""
    for i in range(len(text)):
        yield text[:i] + text[i + 1:]
        for c in MUTATION_CHARS:
            yield text[:i] + c + text[i + 1:]


@pytest.mark.parametrize("block", [1, 1 << 20])
@pytest.mark.parametrize("obj", [build_sjb(1), build_scd(2)], ids=["sjb1", "scd2"])
def test_every_single_edit_matches_oracle(monkeypatch, block, obj):
    # At block 1 the buffer ends inside tokens all through the text, so a
    # reader that decides a value or an error too early is caught here.
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    for text in single_edits(serialize(obj).decode()):
        assert_matches_oracle(text, same_message=False)


class Trickle(io.StringIO):
    """Text that comes one character per read, as a pipe may give it."""

    def read(self, size=-1):
        return super().read(1)


# Every literal, numbers with exponents, escapes, and a string longer than
# _LOOKAHEAD: cut open, its error is placed at its start.
NOTE = '[-Infinity, Infinity, NaN, false, true, null, -1.5e-3, 2E+7, "%s", "\\u00e9\\ud83d\\ude00"]'


@pytest.mark.parametrize("tail", ["", "x"])
def test_every_refill_point_matches_oracle(tail):
    # The end of the buffer falls after each character in turn: a value or
    # an error decided before more text could change it shows here.
    text = '{"note": %s, %s%s' % (NOTE % ("x" * 40), serialize(build_sjb(2)).decode()[1:], tail)
    want = oracle(text)
    try:
        got = serialize_module._read(Trickle(text))
    except DocumentError as exc:
        got = exc
    assert str(got) == str(want) if tail else got == want == build_sjb(2)


CHECK_LISTS = st.lists(st.sampled_from(["sjc", "basis", "ortho", "ratios", "", "bogus"]),
                       min_size=1, max_size=3).map(",".join)


@settings(max_examples=150, deadline=None)
@given(mutated_documents(), st.lists(st.one_of(st.just(["--no-full-rank"]),
                                               CHECK_LISTS.map(lambda c: ["--checks", c])),
                                     max_size=2))
def test_cli_verify_of_mutated_documents_exits_cleanly(tmp_path_factory, text, flags):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), *(f for pair in flags for f in pair)])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []


def test_save_failure_leaves_target_untouched(tmp_path):
    # str() of a coefficient past 4,300 digits raises midway through writing.
    huge = JordanBasis(1, [JordanChain(1, 0, [Vector(1, {0b0: 1}), Vector(1, {0b1: 1})]),
                           JordanChain(1, 1, [Vector(1, {0b1: 10 ** 5000})])])
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        save(huge, path)
    assert os.listdir(tmp_path) == []
    save(build_sjb(2), path)
    with pytest.raises(ValueError):
        save(huge, path)
    assert os.listdir(tmp_path) == ["doc.json"]
    assert path.read_bytes() == serialize(build_sjb(2))


def test_stale_temporary_file_is_named_and_kept(tmp_path, monkeypatch):
    # A file left at the temporary name by a killed process of the same pid.
    monkeypatch.setattr(os, "getpid", lambda: 4321)
    path = tmp_path / "doc.json"
    stale = tmp_path / "doc.json.4321.tmp"
    stale.write_text("stale")
    with pytest.raises(FileExistsError, match="doc.json.4321.tmp"):
        save(build_sjb(2), path)
    assert os.listdir(tmp_path) == [stale.name] and stale.read_text() == "stale"


# Chains in the writer's layout are read from their text; any other chain is
# decoded and checked as before, with the same errors.

def sjb_chains_decoded(monkeypatch) -> list:
    """Spy on _Reader.value: the sjb chains it decodes, alone or as the whole
    chains array, are appended to the list."""
    decoded, value = [], serialize_module._Reader.value

    def spy(reader):
        v = value(reader)
        decoded.extend(c for c in (v if isinstance(v, list) else [v])
                       if isinstance(c, dict) and "vectors" in c)
        return v

    monkeypatch.setattr(serialize_module._Reader, "value", spy)
    return decoded


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1 << 20])
def test_canonical_chains_match_oracle_at_every_block_size(tmp_path, monkeypatch, block):
    # Small blocks cut chain heads and end markers at block edges.
    decoded = sjb_chains_decoded(monkeypatch)
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    for n in range(10):
        text = serialize(build_sjb(n)).decode()
        want = from_document(json.loads(text))
        path = tmp_path / f"b{n}.json"
        path.write_text(text)
        assert deserialize(text) == want and load(path) == want
    assert decoded == []


def test_only_canonical_layout_skips_the_decoder(monkeypatch):
    decoded = sjb_chains_decoded(monkeypatch)
    basis = build_sjb(5)
    doc = to_document(basis)
    assert deserialize(serialize(basis)) == basis and decoded == []
    for text in (json.dumps(doc, separators=(",", ":")), json.dumps(doc, sort_keys=True)):
        decoded.clear()
        assert deserialize(text) == basis
        assert len(decoded) == len(basis.chains)


def test_chain_outside_the_layout_is_decoded_with_all_after_it(monkeypatch):
    # Valid JSON, but chain 1 has one extra space: it and every later chain
    # take the decoder, and the result is unchanged.
    decoded = sjb_chains_decoded(monkeypatch)
    basis = build_sjb(5)
    text = serialize(basis).decode()
    cut = text.index('"coeff": ', text.index('"start_rank": 1'))
    text = text[:cut] + '"coeff":  ' + text[cut + 9:]
    assert deserialize(text) == basis == oracle(text)
    assert len(decoded) == len(basis.chains) - 1


def canonical_fault(edit) -> str:
    """The writer's layout of build_sjb(4)'s document with chain 2 edited."""
    doc = to_document(build_sjb(4))
    edit(doc["chains"][2])
    return json.dumps(doc, indent=2) + "\n"


def first_term(**fields):
    return lambda ch: ch["vectors"][1][0].update(fields)


@pytest.mark.parametrize("edit, message", [
    (first_term(coeff="0"), "zero coefficients must not be stored"),
    (first_term(coeff="-0"), "coeff is not in canonical form: '-0'"),
    (first_term(coeff="01"), "coeff is not in canonical form: '01'"),
    (first_term(coeff="1" * 5000),
     f"coeff has 5000 digits, over the interpreter's limit of {sys.get_int_max_str_digits()}"),
    (first_term(coeff="-" + "9" * (sys.get_int_max_str_digits() + 1)),
     f"coeff has {sys.get_int_max_str_digits() + 1} digits, over the interpreter's limit "
     f"of {sys.get_int_max_str_digits()}"),
    (first_term(coeff=5), "coeff must be a string, got int"),
    (lambda ch: ch["vectors"][1].append(dict(ch["vectors"][1][0], coeff="7")),
     "chain 2 vector 1: repeated subset [1, 2]"),
    (first_term(subset=[0, 2]), "element 0 outside 1..4"),
    (first_term(subset=[1, 5]), "element 5 outside 1..4"),
    (first_term(subset=[3, 1]), "subset must be sorted without repeats: [3, 1]"),
    (lambda ch: ch.update(start_rank=5), "chain 2: bad start_rank 5"),
    (lambda ch: ch["vectors"].insert(1, []),
     "chain 2 vector 1: terms must be a non-empty list"),
], ids=["zero", "minus-zero", "leading-zero", "5000-digits", "limit+1-digits", "int-coeff", "repeated-subset",
        "element-0", "element-n+1", "unsorted", "start-rank-n+1", "empty-vector"])
def test_fault_in_canonical_text_keeps_its_message(edit, message):
    text = canonical_fault(edit)
    assert str(streamed(text)) == str(oracle(text)) == message


# Edits of the text at the writer's separators: _TERM_SEP between two terms
# and _COEFF_SEP between a term's subset and its coefficient.
_TERM_SEP = '"\n          },\n          {\n            "subset": '
_COEFF_SEP = ',\n            "coeff": "'


def swap_separators(text, at):
    """The first term separator and the coefficient separator after it, swapped."""
    i = text.index(_TERM_SEP, at)
    j = text.index(_COEFF_SEP, i)
    return (text[:i] + _COEFF_SEP + text[i + len(_TERM_SEP):j] + _TERM_SEP
            + text[j + len(_COEFF_SEP):])


def drop_coeff(text, at):
    i = text.index(_COEFF_SEP, at)
    return text[:i] + text[text.index('"', i + len(_COEFF_SEP)) + 1:]


def repeat_coeff(text, at):
    """The first term's "coeff" key followed by a second one, whose value json.loads keeps."""
    j = text.index('"', text.index(_COEFF_SEP, at) + len(_COEFF_SEP)) + 1
    return text[:j] + _COEFF_SEP + '7"' + text[j:]


def swap_bracket(find):
    """The brace that opens vector 1's first term, or closes its last, as a bracket."""
    def edit(text, at):
        i = find(text, at)
        return text[:i] + {"{": "[", "}": "]"}[text[i]] + text[i + 1:]
    return edit


def respace_subset(respace):
    def edit(text, at):
        i = text.index("[", text.index('"subset": ', at))
        j = text.index("]", i) + 1
        return text[:i] + respace(text[i:j]) + text[j:]
    return edit


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1 << 20])
@pytest.mark.parametrize("edit, want", [
    (swap_separators, "not valid JSON: Invalid control character"),
    (drop_coeff, "chain 2 vector 1: term must have subset and coeff"),
    (repeat_coeff, "a basis"),
    (swap_bracket(lambda text, at: text.index("{", at)), "not valid JSON: Expecting ','"),
    (swap_bracket(lambda text, at: text.index("\n        ],", at + 1) - 1),
     "not valid JSON: Expecting ','"),
    (respace_subset(lambda s: s.replace(",", ",\t", 1)), "the basis"),
    (respace_subset(lambda s: json.dumps(json.loads(s), separators=(",", ":"))), "the basis"),
], ids=["swapped-separators", "no-coeff", "repeated-coeff", "term-opened-by-bracket",
        "term-closed-by-bracket", "tab-in-subset", "compact-subset"])
def test_edits_at_the_writer_separators_match_oracle(tmp_path, monkeypatch, block, edit,
                                                     want):
    # Each edit is made at the first term of chain 2's vector 1, which holds six.
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    basis = build_sjb(4)
    text = serialize(basis).decode()
    chain2 = [m.start() for m in re.finditer('"start_rank"', text)][2]
    text = edit(text, text.index("\n        ],\n        [\n", chain2))
    expected = oracle(text)
    if isinstance(expected, DocumentError):
        assert str(expected).startswith(want)
    else:
        assert (expected == basis) == (want == "the basis")
    path = tmp_path / "edited.json"
    path.write_text(text)
    for got in (streamed(text), streamed(text.encode()), load_or_error(path)):
        assert type(got) is type(expected)
        assert str(got) == str(expected) if isinstance(expected, DocumentError) else got == expected


def test_subsets_in_any_json_whitespace_skip_the_decoder(monkeypatch):
    decoded = sjb_chains_decoded(monkeypatch)
    basis = build_sjb(5)
    text = serialize(basis).decode().replace(",\n              ", ",\t")
    assert "\t" in text and deserialize(text) == basis and decoded == []


def test_unterminated_canonical_chain_fails_in_linear_time(monkeypatch):
    # A chain head, then 8 MB of terms and no end marker: the search for the
    # end reads on to the end of the file, doubling its buffer at each refill.
    monkeypatch.setattr(serialize_module, "_BLOCK", 1)
    fills, fill = [], serialize_module._Reader._fill
    monkeypatch.setattr(serialize_module._Reader, "_fill",
                        lambda reader: fills.append(1) or fill(reader))
    term = '          {\n            "subset": [],\n            "coeff": "1"\n          },\n'
    text = ('{\n  "format_version": "1",\n  "kind": "sjb",\n  "n": 3,\n  "chains": [\n'
            '    {\n      "start_rank": 0,\n      "vectors": [\n        [\n'
            + term * (8_000_000 // len(term)))
    start = time.perf_counter()
    assert str(streamed(text)) == str(oracle(text))
    assert str(oracle(text)).startswith("not valid JSON: Expecting")
    assert time.perf_counter() - start < 10.0
    assert len(fills) < 64


def test_unmatched_subset_brackets_are_refused_in_linear_time():
    # 20,000 terms each opening a subset that never closes; a pattern free to
    # scan across terms would retry the rest of the chain from each of them.
    text = serialize(build_sjb(3)).decode()
    end = text.index("\n        ]\n      ]\n    }")
    bad = '          {\n            "subset": [1'
    text = text[:end] + ",\n" + bad * 20_000 + text[end:]
    start = time.perf_counter()
    assert str(streamed(text)) == str(oracle(text))
    assert time.perf_counter() - start < 10.0


# Text the decoders cannot take is a DocumentError, whichever way it is read.

DEEP_SUBSET = ('{"format_version": "1", "kind": "sjb", "n": 2, "chains": '
               '[{"start_rank": 0, "vectors": [[{"subset": ' + "[" * 100_000)


@pytest.mark.parametrize("text", [DEEP_SUBSET, "[" * 100_000], ids=["subset", "top-level"])
def test_deep_nesting_is_a_document_error(tmp_path, text):
    # The chain is decoded as one element of the chains array, the top-level
    # array as one value; both recurse past the interpreter's limit.
    path = tmp_path / "deep.json"
    path.write_text(text)
    for read in (lambda: load(path), lambda: deserialize(text),
                 lambda: deserialize(text.encode())):
        with pytest.raises(DocumentError, match="^maximum recursion depth exceeded"):
            read()


@pytest.mark.parametrize("data", [b'{"a": "\xff"}', b'{"a": "\xe2\x82', b"\xef\xbb{}"],
                         ids=["bad-start", "cut-at-end", "cut-bom"])
def test_bytes_that_are_not_utf8_are_a_document_error(tmp_path, data):
    with pytest.raises(UnicodeDecodeError) as want:
        data.decode("utf-8")
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for read in (lambda: deserialize(data), lambda: load(path)):
        with pytest.raises(DocumentError) as got:
            read()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block", [1, 7, 64, 4096, 1 << 20])
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82"], ids=["ff", "c3", "e282"])
def test_utf8_error_position_is_the_byte_offset_in_the_file(tmp_path, monkeypatch, block,
                                                            bad):
    # A bad sequence 5,000 bytes before the end, in the middle of a chain.
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    data = serialize(build_sjb(7))
    at = len(data) - 5000
    data = data[:at] + bad + data[at + len(bad):]
    with pytest.raises(UnicodeDecodeError) as want:
        data.decode("utf-8")
    assert f"position {at}" in str(want.value)
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for read in (lambda: load(path), lambda: deserialize(data)):
        with pytest.raises(DocumentError) as got:
            read()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 20])
def test_multibyte_text_is_read_across_block_edges(tmp_path, monkeypatch, block):
    # Two-, three- and four-byte characters in a key and in trailing garbage.
    monkeypatch.setattr(serialize_module, "_BLOCK", block)
    text = '{"é€\U0001f600": 1, ' + serialize(build_sjb(3)).decode()[1:]
    for doc in (text, text + "€"):
        path = tmp_path / "doc.json"
        path.write_text(doc, encoding="utf-8")
        want = oracle(doc)
        for got in (streamed(doc), streamed(doc.encode()), load_or_error(path)):
            assert type(got) is type(want)
            assert str(got) == str(want) if isinstance(want, DocumentError) else got == want


def load_or_error(path):
    try:
        return load(path)
    except DocumentError as exc:
        return exc
