import json
import random
from collections import Counter

import pytest

from equicompress import cli
from equicompress.actions import GroupAction, quotient
from equicompress.cog import (
    triple_from_doc,
    triple_to_doc,
    validate_triple,
)
from equicompress.compress import compress
from equicompress.errors import FormatError
from equicompress.complexes import build_complex
from equicompress.families import (
    cycle_complex,
    cycle_rotation_action,
    hexagon_antipodal_action,
    regular_fixtures,
    subdivide_action,
    wheel_rotation_action,
)
from equicompress.groups import Subgroup
from equicompress.reconstruct import reconstruct
from oracles import validate_against_action
from reference_cog import reference_validate_triple
from relabel import renumbered_s3_triangle
from test_reconstruct import mutated


def test_validate_passes_on_compress_output():
    for name, action in regular_fixtures().items():
        triple = compress(action)
        assert validate_triple(triple).valid, name
        assert validate_against_action(triple, action).valid, name
        # a parsed copy is over an equal group that is another object
        parsed = triple_from_doc(triple_to_doc(triple))
        assert validate_against_action(parsed, action).valid, name


def test_each_distinct_stabilizer_is_one_object():
    fixed_points = 0
    for name, action in regular_fixtures().items():
        triple = compress(action)
        parsed = triple_from_doc(triple_to_doc(triple))
        for stabilizers in (triple.stabilizers, parsed.stabilizers):
            by_members = {}
            for s in stabilizers:
                assert by_members.setdefault(tuple(s.elements), s) is s, name
        sizes = Counter(action.orbit_ids)
        for sid, oid in enumerate(action.orbit_ids):
            if sizes[oid] == 1:
                assert action.stab(sid) is action.group.full_subgroup(), (name, sid)
                fixed_points += action.group.order > 1
    assert fixed_points


def test_first_unclosed_stabilizer_is_named():
    triple = compress(regular_fixtures()["dihedral-3"])
    group = triple.group
    rotation = next(g for g in range(group.order) if group.prod(g, g) not in (0, g))
    doc = triple_to_doc(triple)
    doc["stabilizers"][2] = doc["stabilizers"][4] = [0, rotation]
    for _ in range(2):  # a refused member set is not kept
        with pytest.raises(FormatError) as exc:
            triple_from_doc(doc)
        assert str(exc.value) == "$.stabilizers[2]: subgroup not closed under multiplication"


def test_corrupted_transfer_is_caught():
    action = regular_fixtures()["cycle-3"]
    triple = compress(action)
    (parent, child) = next(
        (p, c) for (p, c), g in triple.transfers.items() if g == 0
    )
    triple.transfers[(parent, child)] = 1
    report = validate_against_action(triple, action)
    assert not report.valid


def test_triple_over_another_quotient_is_reported():
    # same group as the hexagon's, acting on an 8-cycle: its quotient is a square
    square = GroupAction.from_generator_perms([[4, 5, 6, 7, 0, 1, 2, 3]], cycle_complex(8))
    report = validate_against_action(compress(hexagon_antipodal_action()), square)
    assert report.violations == ["triple's quotient is not the action's quotient"]


def test_triple_over_another_group_is_reported():
    # C_2 on the hexagon against C_3 on the triangle
    report = validate_against_action(compress(hexagon_antipodal_action()), cycle_rotation_action(3))
    assert report.violations == ["triple and action use different groups"]


def test_stabilizer_map_of_the_wrong_length_is_reported():
    triple = compress(hexagon_antipodal_action())
    n = len(triple.quotient)
    triple.stabilizers.pop()
    report = validate_triple(triple)
    assert report.violations == [f"stabilizer map covers {n - 1} of {n} simplices"]


def test_path_independence_violation_is_caught():
    action = regular_fixtures()["c3-triangle-sd2"]
    triple = compress(action)
    assert validate_triple(triple).valid
    # perturb one transfer under a triangle class; some length-2 path pair
    # through it must now disagree
    parent = next(y for y, s in enumerate(triple.quotient.simplices) if len(s) == 3)
    child = triple.quotient.faces_codim1[parent][0]
    original = triple.transfers[(parent, child)]
    triple.transfers[(parent, child)] = (original + 1) % action.group.order
    report = validate_triple(triple)
    assert not report.valid
    assert any("paths" in v or "conjugation" in v for v in report.violations)


def test_missing_and_extra_transfers():
    action = hexagon_antipodal_action()
    triple = compress(action)
    key = next(iter(triple.transfers))
    del triple.transfers[key]
    report = validate_triple(triple)
    assert not report.valid
    assert any("missing" in v for v in report.violations)

    triple2 = compress(action)
    triple2.transfers[(0, 1)] = 0  # vertices have no faces
    report2 = validate_triple(triple2)
    assert any("non-face" in v for v in report2.violations)


def test_conjugation_violation():
    action = regular_fixtures()["klein-bowtie-sd2"]
    triple = compress(action)
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


def _report(validate, triple):
    report = validate(triple)
    return report.valid, report.violations


def test_validator_matches_the_reference():
    # compress outputs and 600 mutants of each (seed 6), on the regular
    # fixtures, wheel-5 and S_4 on a solid tetrahedron, whose 3-simplices
    # have six path pairs each; (valid, violations) must agree exactly
    actions = dict(regular_fixtures())
    actions["wheel-5"] = wheel_rotation_action(5)
    tetrahedron = build_complex([[0, 1, 2, 3]])
    s4 = GroupAction.from_generator_perms([[1, 0, 2, 3], [1, 2, 3, 0]], tetrahedron)
    actions["s4-tetrahedron-sd2"] = subdivide_action(s4, 2)
    rng = random.Random(6)
    outcomes = Counter()
    for name, action in actions.items():
        triple = compress(action)
        assert _report(validate_triple, triple) == (True, []), name
        for _ in range(600):
            bad = mutated(triple, rng)
            valid, violations = _report(validate_triple, bad)
            assert (valid, violations) == _report(reference_validate_triple, bad), name
            outcomes.update({v.split()[0] for v in violations} or {"valid"})
    assert set(outcomes) == {"valid", "conjugation", "stabilizer", "paths"}, outcomes


def test_hand_made_violations_match_the_reference():
    fixtures = regular_fixtures()

    # two vertex stabilizers swapped for another subgroup of order 2: every
    # relation down to either breaks conjugation, listed in relation order
    triple = compress(fixtures["klein-bowtie-sd2"])
    group = triple.group
    for y in [y for y, s in enumerate(triple.stabilizers) if len(s) == 2][:2]:
        other = next(
            g
            for g in range(1, group.order)
            if g not in triple.stabilizers[y] and group.prod(g, g) == 0
        )
        triple.stabilizers[y] = Subgroup(group, [0, other])
    valid, violations = _report(validate_triple, triple)
    assert (valid, violations) == _report(reference_validate_triple, triple)
    assert len(violations) >= 2
    assert all(v.startswith("conjugation by transfer of") for v in violations)

    # one edge transfer under two triangles: a path pair under each disagrees
    triple = compress(fixtures["c3-triangle-sd2"])
    quotient = triple.quotient
    tops_over = {}
    for top, simplex in enumerate(quotient.simplices):
        if len(simplex) == 3:
            for mid in quotient.faces_codim1[top]:
                tops_over.setdefault(mid, []).append(top)
    mid = next(mid for mid, tops in tops_over.items() if len(tops) == 2)
    bottom = quotient.faces_codim1[mid][0]
    triple.transfers[mid, bottom] = triple.group.prod(triple.transfers[mid, bottom], 1)
    valid, violations = _report(validate_triple, triple)
    assert (valid, violations) == _report(reference_validate_triple, triple)
    assert [v.split()[1] for v in violations] == [str(top) for top in tops_over[mid]]
    assert all(v.startswith("paths ") for v in violations)

    # an edge stabilizer shrunk to the identity: containment holds, the law fails
    triple = compress(fixtures["klein-bowtie-sd2"])
    y = next(
        i
        for i, s in enumerate(triple.stabilizers)
        if len(triple.quotient.simplices[i]) == 2 and len(s) == 2
    )
    triple.stabilizers[y] = triple.group.subgroup([0])
    valid, violations = _report(validate_triple, triple)
    assert (valid, violations) == _report(reference_validate_triple, triple)
    assert len(violations) == 1 and violations[0].startswith(f"stabilizer of class {y} lacks")


def test_doc_roundtrip_is_byte_stable():
    action = regular_fixtures()["dihedral-3"]
    triple = compress(action)
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


def test_parent_format_triples_parse_to_the_compact_triple(tmp_path):
    # triples were once written indented, with every identity transfer listed,
    # and before that with a "certificate" key (the orbit map and the lifts)
    for name, action in regular_fixtures().items():
        triple = compress(action)
        path = tmp_path / f"{name}.json"
        cli._dump(triple_to_doc(triple), str(path))
        compact = json.loads(path.read_text())
        assert all(g for _, _, g in compact["transfers"]), name
        explicit = {
            **compact,
            "transfers": [[p, c, g] for (p, c), g in sorted(triple.transfers.items())],
        }
        _, orbit_map, lifts = quotient(action)
        certified = {**explicit, "certificate": {"p": orbit_map, "lift": lifts}}
        new = triple_from_doc(compact)
        assert new.transfers == triple.transfers, name
        for old_doc in (explicit, certified):
            old = triple_from_doc(json.loads(json.dumps(old_doc, sort_keys=True, indent=2)))
            assert old.group == new.group, name
            assert old.quotient.simplices == new.quotient.simplices, name
            assert [s.elements for s in old.stabilizers] == [
                s.elements for s in new.stabilizers
            ], name
            assert old.transfers == new.transfers, name


def test_triple_from_doc_structural_errors():
    action = hexagon_antipodal_action()
    doc = triple_to_doc(compress(action))

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
    bad["stabilizers"][0] = [0, 0, 1, 1]  # C_2 with each element listed twice
    with pytest.raises(FormatError) as exc:
        triple_from_doc(bad)
    assert "$.stabilizers[0]" in str(exc.value)

    # a later list equal to an earlier valid one, all of C_2, but for true or
    # 1.0 in place of 1: each is refused where it stands, not read as the
    # earlier list
    for stand_in in (True, 1.0):
        bad = json.loads(json.dumps(doc))
        bad["stabilizers"][0] = [0, 1]
        bad["stabilizers"][3] = [0, stand_in]
        with pytest.raises(FormatError) as exc:
            triple_from_doc(bad)
        assert str(exc.value) == "$.stabilizers[3]: subgroup must be a list of element indices"

    # one bad list repeated is named at its first index
    bad = json.loads(json.dumps(doc))
    bad["stabilizers"][1] = bad["stabilizers"][4] = [0, 1, 1]
    with pytest.raises(FormatError) as exc:
        triple_from_doc(bad)
    assert str(exc.value) == "$.stabilizers[1]: subgroup lists an element index twice"

    bad = json.loads(json.dumps(doc))
    bad["transfers"].append(bad["transfers"][-1])
    with pytest.raises(FormatError) as exc:
        triple_from_doc(bad)
    assert "duplicate" in str(exc.value)

    bad = json.loads(json.dumps(doc))
    bad["transfers"][0][2] = 99
    with pytest.raises(FormatError):
        triple_from_doc(bad)

    bad = json.loads(json.dumps(doc))
    bad["transfers"].append([0, 1, 1])  # vertices have no faces
    with pytest.raises(FormatError) as exc:
        triple_from_doc(bad)
    assert str(exc.value) == "$.transfers[1]: (0, 1) is not a codimension-1 face pair"



def test_renumbered_triple_is_read_in_its_own_numbering():
    action, phi, doc = renumbered_s3_triangle()
    group = action.group
    pairs = [(a, b) for a in range(group.order) for b in range(group.order)]
    assert any(phi[group.prod(a, b)] != group.prod(phi[a], phi[b]) for a, b in pairs)
    triple = triple_from_doc(doc)
    assert triple_to_doc(triple) == doc
    for a, b in pairs:
        assert triple.group.prod(phi[a], phi[b]) == phi[group.prod(a, b)], (a, b)
    assert validate_triple(triple).valid
    rc = reconstruct(triple)
    assert len(rc.complex) == 121
    assert rc.complex.counts_by_dim() == action.complex.counts_by_dim()
