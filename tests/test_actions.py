import pytest

from equicompress.actions import (
    GroupAction,
    action_from_doc,
    action_to_doc,
    check_regularity,
    induced_action_on_subdivision,
    quotient,
)
from equicompress.complexes import barycentric_subdivision
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
    assert action.vertex_orbit_classes() == [0, 1, 2, 0, 1, 2]


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
    assert action.act_on_vertex(w["element"], w["vertex"]) != w["vertex"]
    # the left edge is stabilized setwise by the within-triangle flip
    assert action.complex.simplices[w["simplex"]] == (0, 1)
    assert w["element"] == 1


def test_orbit_closure_witness_replays():
    action = twelve_cycle_shift_action()
    report = check_regularity(action)
    w = report.witness
    simplex = action.complex.simplices[w["simplex"]]
    stray = action.complex.simplices[w["recombined"]]
    vclass = action.vertex_orbit_classes()
    assert sorted(vclass[v] for v in simplex) == sorted(vclass[v] for v in stray)
    assert w["recombined"] not in action.orb(w["simplex"])


def test_distinct_vertex_orbit_witness_replays():
    rot = GroupAction.from_generator_perms([[1, 2, 3, 4, 5, 0]], cycle_complex(6))
    report = check_regularity(rot)
    assert report.condition == "distinct-vertex-orbits"
    u, v = report.witness["vertices"]
    assert rot.act_on_vertex(report.witness["element"], u) == v


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
            assert induced.act_on_vertex(g, v) == action.act_on_simplex(g, v)


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
