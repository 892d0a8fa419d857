import random
from types import SimpleNamespace

import pytest

from equicompress.actions import GroupAction, quotient
from equicompress.bench import counted
from equicompress.cog import CompressedTriple
from equicompress.compress import compress
from equicompress.errors import InputMismatchError, NotAnAutomorphismError
from equicompress.families import (
    cycle_complex,
    cycle_rotation_action,
    hexagon_antipodal_action,
    regular_fixtures,
)
from equicompress.reconstruct import ReconstructedComplex, reconstruct, recovered_action
from equicompress.verify import (
    PROPERTIES,
    EquivarianceReport,
    verify_roundtrip,
)

from oracles import BruteForceBoundError, find_equivariant_isomorphism, verify_quotient_identity
from reference_verify import reference_verify_roundtrip
from relabel import moved_lifts, relabelled


def roundtrip(action):
    triple = compress(action)
    return triple, reconstruct(triple)


def swapped(rc, a, b):
    """A tampered copy of ``rc`` whose simplices a and b trade labels."""
    labels = list(rc.labels)
    labels[a], labels[b] = labels[b], labels[a]
    return ReconstructedComplex(rc.complex, labels, rc.triple)


def test_report_covers_all_properties():
    action = hexagon_antipodal_action()
    _, rc = roundtrip(action)
    report = verify_roundtrip(action, rc)
    assert report.passed
    assert set(report.properties) == set(PROPERTIES)
    assert all(ok for ok, _ in report.properties.values())
    doc = report.to_doc()
    assert doc["passed"] is True


def test_all_fixtures_verify():
    for name, action in regular_fixtures().items():
        _, rc = roundtrip(action)
        report = verify_roundtrip(action, rc)
        assert report.passed, (name, report.to_doc())


def test_mismatched_inputs_rejected():
    a = hexagon_antipodal_action()
    b = cycle_rotation_action(3)
    # same group as the hexagon's, other quotient: a square
    c = GroupAction.from_generator_perms([[4, 5, 6, 7, 0, 1, 2, 3]], cycle_complex(8))
    _, rc_a = roundtrip(a)
    _, rc_b = roundtrip(b)
    assert c.group == a.group
    with pytest.raises(InputMismatchError):
        verify_roundtrip(a, rc_b)
    with pytest.raises(InputMismatchError):
        verify_roundtrip(c, rc_a)


def test_tampered_reconstruction_fails():
    action = hexagon_antipodal_action()
    _, rc = roundtrip(action)
    # swap the labels of two vertices: the comparison map no longer lines up
    # with the faces of the reconstruction
    report = verify_roundtrip(action, swapped(rc, 0, 1))
    assert not report.passed
    failed = [name for name, (ok, _) in report.properties.items() if not ok]
    assert failed
    for name in failed:
        assert report.properties[name][1] is not None


def test_labels_not_closed_under_the_label_action_fail_equivariance():
    # label 0 copied over label 1: moving label 1's coset by a generator finds
    # no simplex, and the verifier reports it instead of raising
    action = hexagon_antipodal_action()
    _, rc = roundtrip(action)
    labels = list(rc.labels)
    labels[1] = labels[0]
    report = verify_roundtrip(action, ReconstructedComplex(rc.complex, labels, rc.triple))
    assert not report.passed
    ok, counterexample = report.properties["equivariant"]
    assert not ok
    assert counterexample["element"] in action.group.generators


def test_well_definedness_checks_each_class_whose_subgroup_pair_is_new():
    # subgroups are interned: a class must be checked when its triple subgroup
    # passed at an earlier class against another action subgroup (class 3
    # below), and when its action subgroup passed against another triple
    # subgroup (class 1)
    action = regular_fixtures()["c3-triangle-sd2"]
    _, rc = roundtrip(action)
    triple = rc.triple
    full = triple.group.full_subgroup()
    assert [len(s) for s in triple.stabilizers[:4]] == [1, 1, 3, 1]
    for y in (3, 1):
        stabilizers = list(triple.stabilizers)
        stabilizers[y] = full
        widened = CompressedTriple(triple.group, triple.quotient, stabilizers, triple.transfers)
        report = verify_roundtrip(action, ReconstructedComplex(rc.complex, rc.labels, widened))
        assert report.properties["well-defined"] == (False, {"class": y, "element": 1})


def test_quotient_identity():
    for name, action in regular_fixtures().items():
        for acted in (action, relabelled(action)[0]):
            triple, rc = roundtrip(acted)
            assert verify_quotient_identity(rc, triple.quotient), name
    # a reconstruction tampered by swapping labels across classes is caught
    triple, rc = roundtrip(hexagon_antipodal_action())
    edges = [sid for sid, s in enumerate(rc.complex.simplices) if len(s) == 2]
    assert not verify_quotient_identity(swapped(rc, edges[0], edges[-1]), triple.quotient)


def _reference_verify_roundtrip(action, certificate, rc):
    """Reference verifier: well-definedness and equivariance over every element of G.

    The orbit map and the lifts come in ``certificate``; the reconstruction's
    action is ``recovered_action``, which moves each simplex by its vertices.
    """
    triple = rc.triple
    if triple.group is not action.group and triple.group != action.group:
        raise InputMismatchError("reconstruction and action use different groups")
    if len(certificate.orbit_map) != len(action.complex):
        raise InputMismatchError("certificate does not match the action's complex")

    group = triple.group
    properties = {}

    comparison = [
        action.act_on_simplex(g, certificate.lifts[y]) for (y, g) in rc.labels
    ]

    counterexample = None
    for y, lift in enumerate(certificate.lifts):
        stabilizer = triple.stabilizers[y]
        for g in range(group.order):
            if action.act_on_simplex(g, lift) != action.act_on_simplex(
                group.minrep(stabilizer, g), lift
            ):
                counterexample = {"class": y, "element": g}
                break
        if counterexample:
            break
    properties["well-defined"] = (counterexample is None, counterexample)

    seen = {}
    counterexample = None
    for sid, image in enumerate(comparison):
        if image in seen:
            counterexample = {"simplices": [seen[image], sid], "image": image}
            break
        seen[image] = sid
    properties["injective"] = (counterexample is None, counterexample)

    missing = sorted(set(range(len(action.complex))) - set(comparison))
    properties["surjective"] = (
        not missing,
        {"uncovered": missing[:5]} if missing else None,
    )

    action_on_rc = recovered_action(rc)
    counterexample = None
    for sid in range(len(rc)):
        for h in range(group.order):
            moved = action_on_rc.act_on_simplex(h, sid)
            if comparison[moved] != action.act_on_simplex(h, comparison[sid]):
                counterexample = {"simplex": sid, "element": h}
                break
        if counterexample:
            break
    properties["equivariant"] = (counterexample is None, counterexample)

    counterexample = None
    for sid in range(len(rc)):
        for fid in rc.complex.faces_codim1[sid]:
            if comparison[fid] not in action.complex.faces_codim1[comparison[sid]]:
                counterexample = {"simplex": sid, "face": fid}
                break
        if counterexample:
            break
    properties["simplicial"] = (counterexample is None, counterexample)

    counterexample = None
    for sid, (y, _) in enumerate(rc.labels):
        if certificate.orbit_map[comparison[sid]] != y:
            counterexample = {"simplex": sid, "class": y}
            break
    properties["fiber-preserving"] = (counterexample is None, counterexample)

    return EquivarianceReport(all(ok for ok, _ in properties.values()), properties)


def _certificate(action):
    _, orbit_map, lifts = quotient(action)
    return SimpleNamespace(orbit_map=orbit_map, lifts=lifts)


def _flags(report):
    return {name: ok for name, (ok, _) in report.properties.items()}


def test_verifier_matches_the_reference():
    raised = reported = 0
    for name, action in regular_fixtures().items():
        for acted in (action, relabelled(action)[0]):
            certificate = _certificate(acted)
            _, rc = roundtrip(acted)
            new = verify_roundtrip(acted, rc)
            assert new.to_doc() == reference_verify_roundtrip(acted, rc).to_doc(), name
            ref = _reference_verify_roundtrip(acted, certificate, rc)
            assert (new.passed, _flags(new)) == (ref.passed, _flags(ref)), name

            by_dim = {}
            for sid, simplex in enumerate(rc.complex.simplices):
                by_dim.setdefault(len(simplex), []).append(sid)
            for sids in by_dim.values():
                if len(sids) < 2:
                    continue
                for a, b in {(sids[0], sids[1]), (sids[0], sids[-1])}:
                    bad = swapped(rc, a, b)
                    new = verify_roundtrip(acted, bad)
                    # the label-major loops name the same counterexamples
                    assert new.to_doc() == reference_verify_roundtrip(acted, bad).to_doc()
                    try:
                        ref = _reference_verify_roundtrip(acted, certificate, bad)
                    except NotAnAutomorphismError:
                        # swapped vertex labels give no action on the complex
                        raised += 1
                        assert not new.passed, (name, a, b)
                        assert any(ce for ok, ce in new.properties.values() if not ok)
                        continue
                    reported += 1
                    assert new.passed == ref.passed, (name, a, b)
                    differ = {p for p in PROPERTIES if _flags(new)[p] != _flags(ref)[p]}
                    # The reference moves simplices by their vertices' labels,
                    # the verifier by their own: after a swap the label action
                    # carries both sides of the comparison along, and only the
                    # face check sees the swap.
                    assert differ <= {"equivariant"}, (name, a, b, differ)
                    if differ:
                        assert _flags(new)["equivariant"] and not _flags(new)["simplicial"]

            # every stabilizer widened to G: a valid triple whose reconstruction
            # is the bare quotient, and S(y) moves lift(y) unless G acts trivially
            triple = rc.triple
            full = [triple.group.full_subgroup()] * len(triple.quotient)
            widened = CompressedTriple(triple.group, triple.quotient, full, triple.transfers)
            bare = reconstruct(widened)
            new = verify_roundtrip(acted, bare)
            assert new.to_doc() == reference_verify_roundtrip(acted, bare).to_doc(), name
            ref = _reference_verify_roundtrip(acted, certificate, bare)
            assert (new.passed, _flags(new)) == (ref.passed, _flags(ref)), name
            assert new.passed == (acted.group.order == 1), name
    assert raised and reported


def _vertex_set_pass(action, rc):
    """Whether each simplex of the reconstruction goes to the simplex its
    vertices' images span, the comparison read with ``act_on_simplex``."""
    _, _, lifts = quotient(action)
    comparison = [action.act_on_simplex(g, lifts[y]) for y, g in rc.labels]
    return (
        len(comparison) == len(rc.complex)
        and action.complex.image_ids(rc.complex, comparison) == comparison
    )


def _corrupted_labels(rc):
    """Tampered label lists for ``rc``, each a copy of some labels over others.

    A vertex label copied over another vertex of its class, beside an edge;
    a fold of vertex c onto a neighbour b whose star holds c's (each simplex
    through c, with b added, is a simplex), which carries facets to facets,
    so only the face loop can pass it; and two truncations, one below the
    vertex count.
    """
    z, labels = rc.complex, rc.labels
    edges = [s for s in z.simplices if len(s) == 2]
    for a, _ in edges[:3]:
        other = next((v for v in range(z.vertex_count) if v != a and labels[v][0] == labels[a][0]), None)
        if other is not None:
            copy = list(labels)
            copy[other] = labels[a]
            yield copy
    folds = 0
    for b, c in edges + [edge[::-1] for edge in edges]:
        star = [s for s in z.simplices if c in s]
        if folds < 2 and all(tuple(sorted({b, *s})) in z.index for s in star):
            folded = list(range(len(z)))
            for s in star:
                if b not in s:
                    folded[z.index[s]] = z.index[tuple(sorted({b, *s} - {c}))]
            yield [labels[sid] for sid in folded]
            folds += 1
    yield labels[:-1]
    yield labels[: z.vertex_count - 1]


def test_face_loop_decides_when_the_vertex_set_pass_fails():
    # the vertex-set pass implies the face check, not conversely: on every
    # corruption the report matches the reference's face loop, and some pass
    # that loop with the vertex-set pass failing
    decided_by_the_loop = truncated = 0
    for name, action in regular_fixtures().items():
        for acted in (action, relabelled(action)[0]):
            _, rc = roundtrip(acted)
            for labels in _corrupted_labels(rc):
                bad = ReconstructedComplex(rc.complex, labels, rc.triple)
                doc = verify_roundtrip(acted, bad).to_doc()
                assert doc == reference_verify_roundtrip(acted, bad).to_doc(), name
                if len(labels) != len(rc.complex):
                    truncated += 1
                elif doc["properties"]["simplicial"]["ok"] and not _vertex_set_pass(acted, bad):
                    decided_by_the_loop += 1
    assert decided_by_the_loop and truncated


def test_passing_verification_builds_no_facet_table():
    def check(action, name):
        _, rc = roundtrip(action)
        assert verify_roundtrip(action, rc).passed, name
        assert "faces_codim1" not in vars(action.complex), name
        assert "faces_codim1" not in vars(rc.complex), name

    for name, action in regular_fixtures().items():
        check(action, name)
        # relabelling reads the original's facets, so the original goes first
        check(relabelled(action)[0], name)


def _first_failure(action, rc, h):
    """The first label that generator h does not carry onto the label of its
    moved point, or None; read with ``act_on_simplex``, label by label."""
    _, _, lifts = quotient(action)
    group, stabilizers = rc.triple.group, rc.triple.stabilizers
    labels = set(rc.labels)
    for sid, (y, g) in enumerate(rc.labels):
        moved = group.minrep(stabilizers[y], group.prod(h, g))
        image = action.act_on_simplex(h, action.act_on_simplex(g, lifts[y]))
        if (y, moved) not in labels or action.act_on_simplex(moved, lifts[y]) != image:
            return sid
    return None


def test_equivariance_counterexample_is_the_least_label_over_the_generators():
    # labels moved to random elements over their class: each failing
    # generator pass names its first mismatching label, and the counterexample
    # is the least of these, at the earlier generator on a tie, as in the
    # label-major reference; some cases fail at the second generator first
    rng = random.Random(25)
    fixtures = regular_fixtures()
    second_first = 0
    for name in ("dihedral-3", "dihedral-4", "dihedral-6", "klein-bowtie-sd2"):
        action = fixtures[name]
        first_generator, second_generator = action.group.generators
        _, rc = roundtrip(action)
        for _ in range(60):
            labels = list(rc.labels)
            for sid in rng.sample(range(len(labels)), rng.randint(1, 2)):
                labels[sid] = (labels[sid][0], rng.randrange(action.group.order))
            bad = ReconstructedComplex(rc.complex, labels, rc.triple)
            doc = verify_roundtrip(action, bad).to_doc()
            assert doc == reference_verify_roundtrip(action, bad).to_doc(), name
            counterexample = doc["properties"]["equivariant"]["counterexample"]
            if counterexample and counterexample["element"] == second_generator:
                first = _first_failure(action, bad, first_generator)
                second_first += first is not None and first > counterexample["simplex"]
    assert second_first


def test_passing_verification_reads_one_coset_per_simplex_and_generator():
    for name, action in regular_fixtures().items():
        _, rc = roundtrip(action)
        report, counts = counted(action, lambda: verify_roundtrip(action, rc))
        assert report.passed, name
        assert counts["minrep"] == len(rc) * len(action.group.generators), name


def test_isomorphism_between_lift_policies():
    # the relabelled copy lifts most classes to other members
    for name in ("hexagon-antipodal", "cycle-4", "dihedral-3"):
        action = regular_fixtures()[name]
        copy, to_copy = relabelled(action)
        assert moved_lifts(action, copy, to_copy) >= 1, name
        _, rc = roundtrip(action)
        _, rc_copy = roundtrip(copy)
        a, b = recovered_action(rc), recovered_action(rc_copy)
        vmap = find_equivariant_isomorphism(a, b)
        assert vmap is not None, name
        # the witness really is a simplicial bijection commuting with G
        assert sorted(vmap) == list(range(a.complex.vertex_count))
        for s in a.complex.simplices:
            assert tuple(sorted(vmap[v] for v in s)) in b.complex.index
        for g in range(a.group.order):
            for v in range(a.complex.vertex_count):
                assert vmap[a.act_on_simplex(g, v)] == b.act_on_simplex(g, vmap[v])


def test_isomorphism_rejects_different_shapes():
    a = hexagon_antipodal_action()
    b = GroupAction.from_generator_perms(
        [[4, 5, 6, 7, 0, 1, 2, 3]], cycle_complex(8)
    )
    # same group structure but different complexes
    assert find_equivariant_isomorphism(a, a) is not None
    assert find_equivariant_isomorphism(a, b) is None


def test_isomorphism_rejects_actions_of_different_groups():
    # C_2 on the hexagon against C_3 on the triangle
    with pytest.raises(InputMismatchError, match="actions use different groups"):
        find_equivariant_isomorphism(hexagon_antipodal_action(), cycle_rotation_action(3))


def test_isomorphism_rejects_incompatible_action():
    # same complex, same group, different actions: antipodal vs reflection
    antipodal = hexagon_antipodal_action()
    reflection = GroupAction.from_generator_perms(
        [[0, 5, 4, 3, 2, 1]], cycle_complex(6)
    )
    assert find_equivariant_isomorphism(antipodal, reflection) is None


def test_brute_force_bound_is_enforced():
    action = cycle_rotation_action(12)  # 48-cycle: 96 simplices
    with pytest.raises(BruteForceBoundError):
        find_equivariant_isomorphism(action, action, bound=50)
