import pytest

from equicompress.actions import (
    DISTINCT_VERTEX_ORBITS,
    ORBIT_CLOSURE,
    POINTWISE_FIX,
    GroupAction,
    RegularityReport,
    action_from_doc,
    action_to_doc,
    check_regularity,
    induced_action_on_subdivision,
    quotient,
)
from equicompress.complexes import barycentric_subdivision, build_complex
from equicompress.errors import (
    FormatError,
    InputMismatchError,
    NotAnAutomorphismError,
    RegularityViolationError,
)
from equicompress.families import (
    bowtie_complex,
    c3_triangle_action,
    cycle_complex,
    hexagon_antipodal_action,
    irregular_fixtures,
    klein_four_bowtie_action,
    regular_fixtures,
    subdivide_action,
    trivial_action,
    triangle_complex,
    twelve_cycle_shift_action,
    wheel_complex,
)
from equicompress.groups import enumerate_from_generators


def test_rejects_non_automorphism():
    x = cycle_complex(4)
    with pytest.raises(NotAnAutomorphismError):
        # transposing adjacent vertices maps the edge {1,2} to the non-edge {0,2}
        GroupAction.from_generator_perms([[1, 0, 2, 3]], x)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        GroupAction.from_generator_perms([[0, 0, 1]], triangle_complex())


def test_rejects_generator_images_breaking_a_relation():
    # C_2, closed from a transposition, cannot act by a 3-cycle: s*s = e fails
    c2 = enumerate_from_generators([[1, 0]], 2)
    with pytest.raises(NotAnAutomorphismError, match="not compatible"):
        GroupAction(c2, triangle_complex(), [[1, 2, 0]])


def test_rejects_wrong_number_of_generator_images():
    c2 = enumerate_from_generators([[1, 0]], 2)
    with pytest.raises(NotAnAutomorphismError):
        GroupAction(c2, triangle_complex(), [])
    with pytest.raises(NotAnAutomorphismError):
        GroupAction(c2, triangle_complex(), [[0, 1, 2], [0, 1, 2]])


def test_orbit_stabilizer_transporter():
    action = hexagon_antipodal_action()
    x = action.complex
    e01 = x.index[(0, 1)]
    e34 = x.index[(3, 4)]
    assert action.orb(e01) == sorted([e01, e34])
    assert action.stab(e01).elements == [0]
    assert action.trans(e01, e34) == 1
    assert action.trans(e01, e01) == 0
    assert action.trans(e01, x.index[(1, 2)]) is None


def test_vertex_orbit_classes():
    action = hexagon_antipodal_action()
    # vertices first, then the edges (0,1) (0,5) (1,2) (2,3) (3,4) (4,5)
    assert action.orbit_ids == [0, 1, 2, 0, 1, 2, 3, 4, 5, 4, 3, 5]


def test_regular_fixtures_pass():
    for name, action in regular_fixtures().items():
        report = check_regularity(action)
        assert report.regular, f"{name}: {report.to_doc()}"


def test_irregular_fixtures_fail_with_expected_condition():
    for name, (action, condition) in irregular_fixtures().items():
        report = check_regularity(action)
        assert not report.regular, name
        assert report.condition == condition, f"{name}: {report.to_doc()}"


def test_pointwise_fix_witness_replays():
    action = klein_four_bowtie_action()
    report = check_regularity(action)
    w = report.witness
    assert action.act_on_simplex(w["element"], w["simplex"]) == w["simplex"]
    assert action.act_on_simplex(w["element"], w["vertex"]) != w["vertex"]
    # the left edge is stabilized setwise by the within-triangle flip
    assert action.complex.simplices[w["simplex"]] == (0, 1)
    assert w["element"] == 1


def test_orbit_closure_witness_replays():
    action = twelve_cycle_shift_action()
    report = check_regularity(action)
    w = report.witness
    simplex = action.complex.simplices[w["simplex"]]
    stray = action.complex.simplices[w["recombined"]]
    vclass = action.orbit_ids
    assert sorted(vclass[v] for v in simplex) == sorted(vclass[v] for v in stray)
    assert w["recombined"] not in action.orb(w["simplex"])


def test_distinct_vertex_orbit_witness_replays():
    rot = GroupAction.from_generator_perms([[1, 2, 3, 4, 5, 0]], cycle_complex(6))
    report = check_regularity(rot)
    assert report.condition == "distinct-vertex-orbits"
    u, v = report.witness["vertices"]
    assert rot.act_on_simplex(report.witness["element"], u) == v


def test_second_subdivision_regularizes():
    for action in (
        klein_four_bowtie_action(),
        twelve_cycle_shift_action(),
        c3_triangle_action(subdivisions=1),
    ):
        assert not check_regularity(action).regular
        assert check_regularity(subdivide_action(action, 2)).regular


def test_quotient_of_antipodal_hexagon_is_triangle():
    action = hexagon_antipodal_action()
    y, p = quotient(action)
    assert y.counts_by_dim() == [3, 3]
    assert len(p) == len(action.complex)
    # fibers have size [G : stab] = 2 everywhere (free action)
    for cid in range(len(y)):
        assert p.count(cid) == 2


def test_quotient_orbit_map_is_constant_on_orbits():
    action = regular_fixtures()["cycle-3"]
    _, p = quotient(action)
    for sid in range(len(action.complex)):
        for g in range(action.group.order):
            assert p[action.act_on_simplex(g, sid)] == p[sid]


def test_quotient_raises_on_irregular():
    with pytest.raises(RegularityViolationError) as exc:
        quotient(twelve_cycle_shift_action())
    assert exc.value.report.condition == "orbit-closure"


def test_quotient_of_trivial_action_is_identity():
    action = trivial_action(bowtie_complex())
    y, p = quotient(action)
    assert y.simplices == action.complex.simplices
    assert p == list(range(len(y)))


def test_induced_action_requires_matching_source():
    action = hexagon_antipodal_action()
    other = barycentric_subdivision(cycle_complex(4))
    with pytest.raises(InputMismatchError):
        induced_action_on_subdivision(action, other)


def test_induced_action_on_subdivision_is_compatible():
    action = hexagon_antipodal_action()
    sd = barycentric_subdivision(action.complex)
    induced = induced_action_on_subdivision(action, sd)
    # a subdivision vertex moves the way its source simplex does
    for g in range(action.group.order):
        for v in range(len(action.complex)):
            assert induced.act_on_simplex(g, v) == action.act_on_simplex(g, v)


def test_action_doc_roundtrip():
    action = hexagon_antipodal_action()
    doc = action_to_doc(action)
    restored = action_from_doc(doc, action.complex)
    assert restored.generator_images == action.generator_images
    for g in range(action.group.order):
        for sid in range(len(action.complex)):
            assert restored.act_on_simplex(g, sid) == action.act_on_simplex(g, sid)
    assert restored.group == action.group


def test_action_doc_errors():
    x = triangle_complex()
    with pytest.raises(FormatError):
        action_from_doc({"group": {"generators": {"g0": [0, 1]}}}, x)
    with pytest.raises(FormatError):
        # an automorphism of the vertex set that is not one of the complex
        action_from_doc(
            {"group": {"generators": {"g0": [1, 0, 2, 3]}}}, cycle_complex(4)
        )
    with pytest.raises(FormatError):
        action_from_doc({}, x)


# The check and the quotient as they stood before both were derived from
# ``GroupAction.orbit_ids``: an independent recomputation of the vertex orbit
# classes, one orbit set per simplex and one stabilizer per simplex.
def _reference_vertex_orbit_classes(action):
    classes = [-1] * action.complex.vertex_count
    next_class = 0
    for v in range(action.complex.vertex_count):
        if classes[v] < 0:
            for g in range(action.group.order):
                classes[action.act_on_simplex(g, v)] = next_class
            next_class += 1
    return classes


def _reference_check_regularity(action):
    complex_ = action.complex
    vclass = _reference_vertex_orbit_classes(action)

    for sid, simplex in enumerate(complex_.simplices):
        if len(simplex) == 1:
            continue
        for g in action.stab(sid).elements:
            moved = next((v for v in simplex if action.act_on_simplex(g, v) != v), None)
            if moved is not None:
                return RegularityReport(
                    False,
                    POINTWISE_FIX,
                    {"simplex": sid, "element": g, "vertex": moved},
                )

    buckets = {}
    for sid, simplex in enumerate(complex_.simplices):
        key = tuple(sorted(vclass[v] for v in simplex))
        buckets.setdefault(key, []).append(sid)
    for sid, simplex in enumerate(complex_.simplices):
        key = tuple(sorted(vclass[v] for v in simplex))
        orbit = set(action.orb(sid))
        stray = next((other for other in buckets[key] if other not in orbit), None)
        if stray is not None:
            return RegularityReport(
                False,
                ORBIT_CLOSURE,
                {"simplex": sid, "recombined": stray},
            )

    for sid, simplex in enumerate(complex_.simplices):
        seen = {}
        for v in simplex:
            if vclass[v] in seen:
                u = seen[vclass[v]]
                carrier = next(
                    g for g in range(action.group.order) if action.act_on_simplex(g, u) == v
                )
                return RegularityReport(
                    False,
                    DISTINCT_VERTEX_ORBITS,
                    {"simplex": sid, "vertices": [u, v], "element": carrier},
                )
            seen[vclass[v]] = v

    return RegularityReport(True)


def _reference_quotient(action):
    vclass = _reference_vertex_orbit_classes(action)
    n_classes = max(vclass) + 1 if vclass else 0
    images = [tuple(sorted(vclass[v] for v in s)) for s in action.complex.simplices]
    quotient_complex = build_complex(set(images), vertex_count=n_classes)
    return quotient_complex, [quotient_complex.index[img] for img in images]


def _regularity_corpus():
    """Fixtures, shifted and reflected polygons, wheels and S_3/S_4 on a simplex."""
    corpus = dict(regular_fixtures())
    corpus.update((name, action) for name, (action, _) in irregular_fixtures().items())
    for n in range(3, 15):
        for s in range(1, n):
            shift = [(v + s) % n for v in range(n)]
            mirror = [(-v) % n for v in range(n)]
            corpus[f"C{n}-shift{s}"] = GroupAction.from_generator_perms([shift], cycle_complex(n))
            corpus[f"D{n}-shift{s}"] = GroupAction.from_generator_perms(
                [shift, mirror], cycle_complex(n)
            )
        corpus[f"C{n}-shift1-sd1"] = subdivide_action(corpus[f"C{n}-shift1"])
        corpus[f"D{n}-shift1-sd1"] = subdivide_action(corpus[f"D{n}-shift1"])
    for m in range(3, 9):
        rotation = [(v + 1) % m for v in range(m)] + [m]
        wheel = GroupAction.from_generator_perms([rotation], wheel_complex(m))
        for times in range(3 if m <= 4 else 2):
            corpus[f"wheel{m}-sd{times}"] = subdivide_action(wheel, times)
    for n in (3, 4):
        transposition = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        symmetric = GroupAction.from_generator_perms(
            [transposition, cycle], build_complex([list(range(n))])
        )
        for times in range(3):
            corpus[f"S{n}-simplex-sd{times}"] = subdivide_action(symmetric, times)
    return corpus


def test_regularity_and_quotient_match_the_reference():
    outcomes = set()
    for name, action in _regularity_corpus().items():
        report = check_regularity(action)
        assert report.to_doc() == _reference_check_regularity(action).to_doc(), name
        outcomes.add(report.condition)
        if report.regular:
            y, p = quotient(action)
            ref_y, ref_p = _reference_quotient(action)
            assert (y.vertex_count, y.simplices, p) == (
                ref_y.vertex_count,
                ref_y.simplices,
                ref_p,
            ), name
    assert outcomes == {None, POINTWISE_FIX, ORBIT_CLOSURE, DISTINCT_VERTEX_ORBITS}
