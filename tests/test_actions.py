import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    subdivision_orbit_count,
)
from equicompress.complexes import barycentric_subdivision, build_complex, complexes_equal
from equicompress.errors import (
    FormatError,
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

from reference_actions import ReferenceAction, reference_compose_rows
from relabel import relabelled


def test_rejects_non_automorphism():
    x = cycle_complex(4)
    with pytest.raises(NotAnAutomorphismError):
        # transposing adjacent vertices maps the edge {1,2} to the non-edge {0,2}
        GroupAction.from_generator_perms([[1, 0, 2, 3]], x)
    # swapping 2 and 3 keeps every edge, so the edge images are all found, yet
    # the triangle's image (0, 1, 3) is not a simplex
    x = build_complex([[0, 1, 2], [0, 3], [1, 3], [2, 3]])
    message = "element 1 maps simplex (0, 1, 2) outside the complex"
    with pytest.raises(NotAnAutomorphismError, match=re.escape(message)):
        GroupAction.from_generator_perms([[0, 1, 3, 2]], x)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        GroupAction.from_generator_perms([[0, 0, 1]], triangle_complex())


def test_rejects_vertex_images_that_are_not_a_permutation():
    # the group is closed from a 3-cycle; the images given send two vertices to 0
    c3 = enumerate_from_generators([[1, 2, 0]], 3)
    with pytest.raises(NotAnAutomorphismError, match="does not permute the vertices"):
        GroupAction(c3, triangle_complex(), [[0, 0, 1]])


def test_rejects_generator_images_breaking_a_relation():
    # C_2, closed from a transposition, cannot act by a 3-cycle: s*s = e fails
    c2 = enumerate_from_generators([[1, 0]], 2)
    with pytest.raises(NotAnAutomorphismError, match="not compatible"):
        GroupAction(c2, triangle_complex(), [[1, 2, 0]])


def test_rejects_an_orbit_longer_than_the_group():
    # C_2 acting by a 4-cycle breaks s*s = e, yet every Schreier generator
    # t[s*x]^-1 * s * t[x] is trivial: only |Stab| * |orbit| = 4 != 2 shows it
    c2 = enumerate_from_generators([[1, 0]], 2)
    vertices = build_complex([], vertex_count=4)
    with pytest.raises(NotAnAutomorphismError, match="not compatible"):
        reference_compose_rows(c2, [[1, 2, 3, 0]], 4)
    with pytest.raises(NotAnAutomorphismError, match="not compatible"):
        GroupAction(c2, vertices, [[1, 2, 3, 0]])


@st.composite
def images_over_a_group(draw):
    """A permutation group of degree at most 5 and one vertex permutation per generator.

    The images are random (mostly not an action, often with orbits longer
    than the group), or an action: the closing permutations relabelled and
    padded with fixed points, the induced action on ordered pairs, or the
    left-regular action; an action has two images of one generator swapped
    half of the time.
    """
    d = draw(st.integers(1, 5))
    perms = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    group = enumerate_from_generators(perms, d)
    kind = draw(st.sampled_from(["random", "relabelled", "pairs", "regular"]))
    if kind == "random":
        n = draw(st.integers(1, 8))
        return group, n, [draw(st.permutations(range(n))) for _ in perms]
    if kind == "relabelled":
        n = d + draw(st.integers(0, 3))
        name = draw(st.permutations(range(n)))
        images = []
        for perm in perms:
            row = [0] * n
            for v in range(n):
                row[name[v]] = name[perm[v] if v < d else v]
            images.append(row)
    elif kind == "pairs":
        n = d * d
        images = [[perm[i] * d + perm[j] for i in range(d) for j in range(d)] for perm in perms]
    else:
        n = group.order
        images = [list(group._mult[s]) for s in group.generators]
    if draw(st.booleans()):
        row = images[draw(st.integers(0, len(images) - 1))]
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        row[u], row[v] = row[v], row[u]
    return group, n, images


def _is_action(build):
    try:
        build()
    except NotAnAutomorphismError:
        return False
    return True


@settings(max_examples=600, derandomize=True, deadline=None)
@given(images_over_a_group())
def test_action_check_matches_the_composition_along_the_cayley_graph(case):
    group, n, images = case
    vertices = build_complex([], vertex_count=n)
    expected = _is_action(lambda: reference_compose_rows(group, images, n))
    assert _is_action(lambda: GroupAction(group, vertices, images)) == expected


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
    ids = action.orbit_ids
    assert [sid for sid in range(len(x)) if ids[sid] == ids[e01]] == sorted([e01, e34])
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
    assert vclass[w["recombined"]] != vclass[w["simplex"]]


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
        subdivide_action(c3_triangle_action()),
    ):
        assert not check_regularity(action).regular
        assert check_regularity(subdivide_action(action, 2)).regular


def test_quotient_of_antipodal_hexagon_is_triangle():
    action = hexagon_antipodal_action()
    y, p, _ = quotient(action)
    assert y.counts_by_dim() == [3, 3]
    assert len(p) == len(action.complex)
    # fibers have size [G : stab] = 2 everywhere (free action)
    for cid in range(len(y)):
        assert p.count(cid) == 2


def test_quotient_orbit_map_is_constant_on_orbits():
    action = regular_fixtures()["cycle-3"]
    _, p, _ = quotient(action)
    for sid in range(len(action.complex)):
        for g in range(action.group.order):
            assert p[action.act_on_simplex(g, sid)] == p[sid]


def test_quotient_raises_on_irregular():
    with pytest.raises(RegularityViolationError) as exc:
        quotient(twelve_cycle_shift_action())
    assert exc.value.report.condition == "orbit-closure"


def test_quotient_of_trivial_action_is_identity():
    action = trivial_action(bowtie_complex())
    y, p, _ = quotient(action)
    assert y.simplices == action.complex.simplices
    assert p == list(range(len(y)))


def test_induced_action_on_subdivision_is_compatible():
    action = hexagon_antipodal_action()
    induced = induced_action_on_subdivision(action)
    assert complexes_equal(induced.complex, barycentric_subdivision(action.complex))
    # a subdivision vertex moves the way its source simplex does
    for g in range(action.group.order):
        for v in range(len(action.complex)):
            assert induced.act_on_simplex(g, v) == action.act_on_simplex(g, v)


def _s4_tetrahedron_action():
    return GroupAction.from_generator_perms(
        [[1, 0, 2, 3], [1, 2, 3, 0]], build_complex([[0, 1, 2, 3]])
    )


@st.composite
def small_g_complexes(draw):
    """A permutation group of degree at most 6 and a complex it maps onto
    itself: the union of the group's images of up to three random simplices."""
    n = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(n)), max_size=2))
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        new = {tuple(p[v] for v in g) for g in frontier for p in perms} - elements
        elements |= new
        frontier = list(new)
    vertex = st.integers(0, n - 1)
    seeds = draw(st.lists(st.lists(vertex, min_size=1, max_size=4, unique=True), max_size=3))
    simplices = {tuple(sorted(g[v] for v in s)) for s in seeds for g in elements}
    return GroupAction.from_generator_perms(perms, build_complex(simplices, n))


def _orbit_count_corpus():
    """Every fixture, and three raw actions whose setwise stabilizers move
    vertices, so the count takes Burnside's branch."""
    corpus = dict(regular_fixtures())
    corpus.update((name, action) for name, (action, _) in irregular_fixtures().items())
    corpus["c3-triangle-raw"] = c3_triangle_action()
    corpus["klein-bowtie-raw"] = klein_four_bowtie_action()
    corpus["S4-tetrahedron-raw"] = _s4_tetrahedron_action()
    return corpus


def test_subdivision_orbit_count_matches_the_induced_action():
    burnside = 0
    for name, action in _orbit_count_corpus().items():
        count = subdivision_orbit_count(action)
        assert count == len(induced_action_on_subdivision(action)._orbits), name
        burnside += any(len(set(key)) < len(key) for key in action.orbit_keys)
    assert burnside >= 3


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_g_complexes())
def test_subdivision_orbit_count_matches_on_random_g_complexes(action):
    assert subdivision_orbit_count(action) == len(induced_action_on_subdivision(action)._orbits)


def test_action_doc_roundtrip():
    action = hexagon_antipodal_action()
    doc = action_to_doc(action)
    restored = action_from_doc(doc, action.complex)
    assert restored.generator_rows == action.generator_rows  # vertex rows first
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
    with pytest.raises(FormatError, match=r"^\$: action must be an object$"):
        action_from_doc([], x)


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
        orbit = {action.act_on_simplex(g, sid) for g in range(action.group.order)}
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


def _involution_on_graph():
    """C_2 = <(0 3)(1 5)(2 4)> on a graph whose edge orbits have the keys
    (0,1), (0,2), (0,2), (0,1): the first key shared in orbit order is not the
    first orbit's."""
    edges = [[0, 1], [0, 4], [3, 4], [2, 3], [0, 2], [0, 5], [1, 3], [3, 5]]
    return GroupAction.from_generator_perms([[3, 5, 4, 0, 2, 1]], build_complex(edges, 6))


def _regularity_corpus():
    """Fixtures, shifted and reflected polygons, wheels, S_3/S_4 on a simplex and
    an involution on a graph."""
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
    corpus["C2-involution-graph"] = _involution_on_graph()
    return corpus


def test_regularity_and_quotient_match_the_reference():
    outcomes = set()
    for name, action in _regularity_corpus().items():
        report = check_regularity(action)
        assert report.to_doc() == _reference_check_regularity(action).to_doc(), name
        outcomes.add(report.condition)
        vclass = _reference_vertex_orbit_classes(action)
        for x, simplex in enumerate(action.complex.simplices):
            key = tuple(sorted(vclass[v] for v in simplex))
            assert key == action.orbit_keys[action.orbit_ids[x]], (name, x)
        if report.regular:
            y, p, _ = quotient(action)
            ref_y, ref_p = _reference_quotient(action)
            assert (y.vertex_count, y.simplices, p) == (
                ref_y.vertex_count,
                ref_y.simplices,
                ref_p,
            ), name
    assert outcomes == {None, POINTWISE_FIX, ORBIT_CLOSURE, DISTINCT_VERTEX_ORBITS}
    # orbits 4 and 5 are the first pair to share a key, but orbit 3's key
    # recurs at orbit 6: the witness is the minima of orbits 3 and 6
    assert check_regularity(_involution_on_graph()).to_doc() == {
        "regular": False,
        "condition": ORBIT_CLOSURE,
        "witness": {"simplex": 6, "recombined": 9},
    }


def _reference_action_corpus():
    """Every fixture, its relabelled copy and its first two subdivisions, and
    S_3/S_4 permuting the vertices of a simplex, with up to two subdivisions."""
    fixtures = dict(regular_fixtures())
    fixtures.update((name, action) for name, (action, _) in irregular_fixtures().items())
    for n in (3, 4):
        transposition = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        fixtures[f"S{n}-simplex"] = GroupAction.from_generator_perms(
            [transposition, cycle], build_complex([list(range(n))])
        )
    corpus = {}
    for name, action in fixtures.items():
        corpus[name] = action
        corpus[f"{name}-relabelled"] = relabelled(action)[0]
        corpus[f"{name}-sd1"] = subdivide_action(action)
        corpus[f"{name}-sd2"] = subdivide_action(corpus[f"{name}-sd1"])
    return corpus


# All |X|^2 transporter pairs are compared up to this size; above it (four
# complexes of 1,345 to 7,873 simplices) the pairs within each orbit, and one
# pair per simplex across orbits.
ALL_PAIRS_UP_TO = 700


def test_action_from_generators_matches_the_per_element_table():
    for name, action in _reference_action_corpus().items():
        images = [row[: action.complex.vertex_count] for row in action.generator_rows]
        reference = ReferenceAction(action.group, action.complex, images)
        ids = action.orbit_ids
        assert ids == reference.orbit_ids, name
        n, order = len(action.complex), action.group.order
        for g in range(order):
            for x in range(n):
                assert action.act_on_simplex(g, x) == reference.act_on_simplex(g, x), (name, g, x)
        for x in range(n):
            assert action.stab(x) == reference.stab(x), (name, x)
        if n <= ALL_PAIRS_UP_TO:
            pairs = [(x, y) for x in range(n) for y in range(n)]
        else:
            members = {}
            for x, oid in enumerate(ids):
                members.setdefault(oid, []).append(x)
            pairs = [(x, y) for orbit in members.values() for x in orbit for y in orbit]
            pairs += [(x, members[(ids[x] + 1) % len(members)][0]) for x in range(n)]
        for x, y in pairs:
            assert action.trans(x, y) == reference.trans(x, y), (name, x, y)
