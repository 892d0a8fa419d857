import json
import random
from collections import Counter

import pytest

from equicompress import cli
from equicompress.actions import action_to_doc, check_regularity
from equicompress.bench import counted
from equicompress.cog import CompressedTriple
from equicompress.complexes import build_complex, complexes_equal
from equicompress.compress import compress
from equicompress.errors import EquicompressError, TripleValidationError
from equicompress.families import cycle_rotation_action, regular_fixtures
from equicompress.groups import Subgroup, enumerate_from_generators
from equicompress.reconstruct import reconstruct, reconstruction_to_doc, recovered_action

from oracles import check_development, check_partial_order


def test_single_point_with_full_stabilizer():
    # quotient = one vertex, stabilizer = the whole group: one point comes back
    group = enumerate_from_generators([[1, 2, 0]], 3)
    point = build_complex([[0]])
    triple = CompressedTriple(group, point, [group.full_subgroup()], {})
    rc = reconstruct(triple)
    assert rc.complex.counts_by_dim() == [1]
    assert rc.labels == [(0, 0)]


def test_single_point_with_trivial_stabilizer():
    # trivial stabilizer: the fiber is a free orbit of k isolated points
    group = enumerate_from_generators([[1, 2, 0]], 3)
    point = build_complex([[0]])
    triple = CompressedTriple(group, point, [group.subgroup([0])], {})
    rc = reconstruct(triple)
    assert rc.complex.counts_by_dim() == [3]
    assert rc.labels == [(0, 0), (0, 1), (0, 2)]


def test_free_edge_orbit():
    # quotient = one edge with trivial stabilizers: k disjoint edges
    group = enumerate_from_generators([[1, 2, 3, 0]], 4)
    edge = build_complex([[0, 1]])
    trivial = group.subgroup([0])
    triple = CompressedTriple(
        group, edge, [trivial, trivial, trivial], {(2, 0): 0, (2, 1): 0}
    )
    rc = reconstruct(triple)
    assert rc.complex.counts_by_dim() == [8, 4]
    # each of the 8 vertices lies on exactly one edge
    degrees = Counter(v for s in rc.complex.simplices if len(s) == 2 for v in s)
    assert degrees == dict.fromkeys(range(8), 1)


def test_roundtrip_shape_on_24_cycle():
    action = cycle_rotation_action(6)
    triple = compress(action)
    rc = reconstruct(triple)
    assert complexes_equal(rc.complex, action.complex) or (
        rc.complex.counts_by_dim() == action.complex.counts_by_dim()
    )
    assert rc.complex.counts_by_dim() == [24, 24]


def test_labels_cover_cosets():
    for name, action in regular_fixtures().items():
        triple = compress(action)
        rc = reconstruct(triple)
        k = action.group.order
        for y, stab in enumerate(triple.stabilizers):
            labels = [g for (cls, g) in rc.labels if cls == y]
            assert len(labels) == k // len(stab), name
            expected = {action.group.minrep(stab, g) for g in range(k)}
            assert set(labels) == expected, name
        # one vertex over each vertex class of y, in order; vertex v is simplex v
        x, quotient = rc.complex, triple.quotient
        assert all(
            [rc.labels[v][0] for v in x.simplices[sid]] == list(quotient.simplices[y])
            for sid, (y, _) in enumerate(rc.labels)
        ), name


def test_minrep_call_count_is_exact():
    # one minrep per facet of each reconstructed simplex:
    # sum_{dim y >= 1} [G:S(y)]*(dim y + 1)
    for name, action in regular_fixtures().items():
        triple = compress(action)
        _, counts = counted(action, lambda: reconstruct(triple))
        k, quotient = action.group.order, triple.quotient
        facets = sum(
            k // len(triple.stabilizers[y]) * len(simplex)
            for y, simplex in enumerate(quotient.simplices)
            if len(simplex) > 1
        )
        assert counts["minrep"] == facets, name


def test_rejects_invalid_triple():
    action = regular_fixtures()["c3-triangle-sd2"]
    triple = compress(action)
    key = next(iter(triple.transfers))
    del triple.transfers[key]
    with pytest.raises(TripleValidationError):
        reconstruct(triple)


def test_corrupt_stabilizer_fails_integrity():
    # shrinking a stabilizer keeps every subgroup containment but breaks the
    # local-group law: it would double a fiber, so two labels would collapse
    # onto the same vertex set during assembly
    action = regular_fixtures()["klein-bowtie-sd2"]
    triple = compress(action)
    group = triple.group
    y = next(
        i
        for i, s in enumerate(triple.stabilizers)
        if len(triple.quotient.simplices[i]) == 2 and len(s) == 2
    )
    triple.stabilizers[y] = group.subgroup([0])
    with pytest.raises(TripleValidationError):
        reconstruct(triple)


def test_recovered_action_is_well_formed_and_regular():
    for name in ("hexagon-antipodal", "cycle-3", "dihedral-3"):
        action = regular_fixtures()[name]
        triple = compress(action)
        rc = reconstruct(triple)
        recovered = recovered_action(rc)  # validates automorphism laws itself
        assert check_regularity(recovered).regular, name


def test_face_relation_is_a_partial_order():
    for name in ("trivial-triangle", "hexagon-antipodal", "cycle-2", "dihedral-3"):
        action = regular_fixtures()[name]
        triple = compress(action)
        rc = reconstruct(triple)
        assert check_partial_order(rc), name


def cyclic_subgroup(group, g):
    members = [0]
    while group.prod(members[-1], g) != 0:
        members.append(group.prod(members[-1], g))
    return Subgroup(group, members)


def mutated(triple, rng):
    """A copy of the triple with 1-3 transfers or stabilizers replaced."""
    group = triple.group
    stabilizers = list(triple.stabilizers)
    transfers = dict(triple.transfers)
    relations = sorted(transfers)
    for _ in range(rng.randint(1, 3)):
        if relations and rng.random() < 0.5:
            transfers[rng.choice(relations)] = rng.randrange(group.order)
        else:
            stabilizers[rng.randrange(len(stabilizers))] = rng.choice(
                [
                    group.subgroup([0]),
                    group.full_subgroup(),
                    rng.choice(triple.stabilizers),
                    cyclic_subgroup(group, rng.randrange(group.order)),
                ]
            )
    return CompressedTriple(group, triple.quotient, stabilizers, transfers)


def test_mutated_triples_are_refused_or_reconstruct_closed():
    # reconstruct does not close its vertex sets downward: a corrupt triple must
    # be refused with an EquicompressError or still give a closed, fully
    # labelled complex whose triple is the complex of groups of its own
    # development; any other exception fails the test
    rng = random.Random(6)
    outcomes = Counter()
    for name, action in regular_fixtures().items():
        triple = compress(action)
        assert check_development(reconstruct(triple)), name
        for _ in range(320):
            bad = mutated(triple, rng)
            try:
                rc = reconstruct(bad)
            except EquicompressError:
                outcomes["refused"] += 1
                continue
            x = rc.complex
            present = set(x.simplices)
            assert {(v,) for v in range(x.vertex_count)} <= present, name
            assert all(
                s[:i] + s[i + 1 :] in present
                for s in x.simplices
                if len(s) > 1
                for i in range(len(s))
            ), name
            assert len(set(rc.labels)) == len(rc.labels) == len(x), name
            assert all(
                len(bad.quotient.simplices[y]) == len(x.simplices[sid])
                for sid, (y, _) in enumerate(rc.labels)
            ), name
            assert all(
                [rc.labels[v][0] for v in x.simplices[sid]] == list(bad.quotient.simplices[y])
                for sid, (y, _) in enumerate(rc.labels)
            ), name
            assert check_development(rc), name
            outcomes["closed"] += 1
    assert outcomes["refused"] > 0 and outcomes["closed"] > 0, outcomes


def test_written_maximal_simplices_are_read_off_the_quotient():
    # a label is maximal exactly when its class is maximal in the quotient;
    # the reconstruction's own facet table is never built for the document
    rng = random.Random(30)
    for name, action in regular_fixtures().items():
        triple = compress(action)
        closed = [triple]
        while len(closed) < 8:
            try:
                reconstruct(bad := mutated(triple, rng))
            except EquicompressError:
                continue
            closed.append(bad)
        for t in closed:
            rc = reconstruct(t)
            doc = reconstruction_to_doc(rc)
            assert "faces_codim1" not in vars(rc.complex), name
            written = doc["complex"]["maximal_simplices"]
            assert written == list(map(list, rc.complex.maximal_simplices())), name
            assert doc["complex"]["vertices"] == rc.complex.vertex_count
            assert doc["labels"] == list(map(list, rc.labels))


def test_reconstruct_command_builds_no_facet_table(tmp_path, monkeypatch, capsys):
    kept = []

    def kept_reconstruct(triple):
        kept.append(reconstruct(triple))
        return kept[-1]

    monkeypatch.setattr(cli, "reconstruct", kept_reconstruct)
    action = regular_fixtures()["klein-bowtie-sd2"]
    path = tmp_path / "action.json"
    path.write_text(json.dumps(action_to_doc(action)))
    triple = tmp_path / "triple.json"
    assert cli.main(["compress", "--action", str(path), "--out", str(triple)]) == 0
    out = tmp_path / "z.json"
    assert cli.main(["reconstruct", "--triple", str(triple), "--out", str(out)]) == 0
    capsys.readouterr()
    (rc,) = kept
    assert "faces_codim1" not in vars(rc.complex)
    written = json.loads(out.read_text())["complex"]["maximal_simplices"]
    assert written == list(map(list, rc.complex.maximal_simplices()))
