"""Canonical documents: round trips, golden files, schema rejection."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjb.jordan import JordanBasis, JordanChain, build_sjb
from sjb.scd import ChainDecomposition, SubsetChain, build_scd
from sjb.vectors import Vector
from sjb.serialize import (DocumentError, deserialize, export_up_matrix_csv,
                           from_document, load, save, serialize, to_document)

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
    JordanBasis(2, [JordanChain(2, 1, [Vector.zero(2)])]),
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


def test_export_rejects_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        export_up_matrix_csv(2, 2, tmp_path / "x.csv")
