import json

import pytest

from equicompress.cog import (
    triple_from_doc,
    triple_to_doc,
    validate_against_action,
    validate_triple,
)
from equicompress.compress import compress
from equicompress.errors import FormatError
from equicompress.families import hexagon_antipodal_action, regular_fixtures
from equicompress.groups import Subgroup


def test_validate_passes_on_compress_output():
    for name, action in regular_fixtures().items():
        triple, certificate = compress(action)
        assert validate_triple(triple).valid, name
        assert validate_against_action(triple, certificate, action).valid, name


def test_corrupted_transfer_is_caught():
    action = regular_fixtures()["cycle-3"]
    triple, certificate = compress(action)
    (parent, child) = next(
        (p, c) for (p, c), g in triple.transfers.items() if g == 0
    )
    triple.transfers[(parent, child)] = 1
    report = validate_against_action(triple, certificate, action)
    assert not report.valid


def test_path_independence_violation_is_caught():
    action = regular_fixtures()["c3-triangle-sd2"]
    triple, _ = compress(action)
    assert validate_triple(triple).valid
    # perturb one transfer under a triangle class; some length-2 path pair
    # through it must now disagree
    parent = next(
        y for y in range(len(triple.quotient)) if triple.quotient.simplex_dim(y) == 2
    )
    child = triple.quotient.faces_codim1(parent)[0]
    original = triple.transfers[(parent, child)]
    triple.transfers[(parent, child)] = (original + 1) % action.group.order
    report = validate_triple(triple)
    assert not report.valid
    assert any("paths" in v or "conjugation" in v for v in report.violations)


def test_missing_and_extra_transfers():
    action = hexagon_antipodal_action()
    triple, _ = compress(action)
    key = next(iter(triple.transfers))
    del triple.transfers[key]
    report = validate_triple(triple)
    assert not report.valid
    assert any("missing" in v for v in report.violations)

    triple2, _ = compress(action)
    triple2.transfers[(0, 1)] = 0  # vertices have no faces
    report2 = validate_triple(triple2)
    assert any("non-face" in v for v in report2.violations)


def test_conjugation_violation():
    action = regular_fixtures()["klein-bowtie-sd2"]
    triple, _ = compress(action)
    # replace a stabilizer by a different subgroup of the same order
    y = next(i for i, s in enumerate(triple.stabilizers) if len(s) == 2)
    group = triple.group
    other = next(
        g
        for g in range(1, group.order)
        if g not in triple.stabilizers[y] and group.prod(g, g) == 0
    )
    triple.stabilizers[y] = Subgroup(group, [0, other])
    assert not validate_triple(triple).valid


def test_doc_roundtrip_is_byte_stable():
    action = regular_fixtures()["dihedral-3"]
    triple, _ = compress(action)
    doc = triple_to_doc(triple)
    assert sorted(doc) == ["group", "quotient", "stabilizers", "transfers"]
    text = json.dumps(doc, sort_keys=True, indent=2)
    restored = triple_from_doc(json.loads(text))
    assert json.dumps(triple_to_doc(restored), sort_keys=True, indent=2) == text
    assert restored.group == triple.group
    assert [s.elements for s in restored.stabilizers] == [
        s.elements for s in triple.stabilizers
    ]
    assert restored.transfers == triple.transfers


def test_triple_from_doc_structural_errors():
    action = hexagon_antipodal_action()
    doc = triple_to_doc(compress(action)[0])

    bad = json.loads(json.dumps(doc))
    bad["stabilizers"] = bad["stabilizers"][:-1]
    with pytest.raises(FormatError) as exc:
        triple_from_doc(bad)
    assert "stabilizers" in str(exc.value)

    bad = json.loads(json.dumps(doc))
    bad["stabilizers"][0] = [1]  # no identity
    with pytest.raises(FormatError):
        triple_from_doc(bad)

    bad = json.loads(json.dumps(doc))
    bad["transfers"].append(bad["transfers"][-1])
    with pytest.raises(FormatError) as exc:
        triple_from_doc(bad)
    assert "duplicate" in str(exc.value)

    bad = json.loads(json.dumps(doc))
    bad["transfers"][0][2] = 99
    with pytest.raises(FormatError):
        triple_from_doc(bad)

