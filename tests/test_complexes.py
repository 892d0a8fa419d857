from collections import Counter

import pytest

from equicompress import complexes
from equicompress.actions import check_regularity, quotient
from equicompress.complexes import (
    MAX_SIMPLICES,
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    complex_from_doc,
    complex_to_doc,
    complexes_equal,
    subdivision_size,
)
from equicompress.errors import ComplexTooLargeError, FormatError, MalformedSimplexError
from equicompress.families import (
    bowtie_complex,
    cycle_complex,
    irregular_fixtures,
    regular_fixtures,
    subdivide_action,
    triangle_complex,
    wheel_complex,
)

from reference_complexes import reference_build_complex, reference_subdivision


def euler_characteristic(x):
    return sum((-1) ** d * c for d, c in enumerate(x.counts_by_dim()))


def test_downward_closure_and_canonical_order():
    x = triangle_complex()
    assert x.vertex_count == 3
    assert x.simplices == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert x.counts_by_dim() == [3, 3, 1]
    assert x.dim == 2


def test_face_and_coface_tables():
    x = triangle_complex()
    top = x.index[(0, 1, 2)]
    assert x.faces_codim1[top] == [x.index[(0, 1)], x.index[(0, 2)], x.index[(1, 2)]]
    assert [sid for sid, ids in enumerate(x.faces_codim1) if x.index[(0, 1)] in ids] == [top]
    assert x.faces_codim1[x.index[(0,)]] == []


def test_malformed_simplices_rejected():
    with pytest.raises(MalformedSimplexError):
        build_complex([[0, 0, 1]])
    with pytest.raises(MalformedSimplexError):
        build_complex([[-1, 2]])
    with pytest.raises(MalformedSimplexError):
        build_complex([[0, 5]], vertex_count=3)


@pytest.mark.parametrize(
    "vertex_count, simplices",
    [
        # closed, but vertex 3 would be simplex 1
        (3, [(0,), (3,), (4,), (0, 3), (0, 4), (3, 4)]),
        (1, [(1,)]),
        (2, [(0,), (2,), (0, 2)]),
    ],
    ids=["vertex-omitted", "vertex-0-omitted", "vertex-below-the-top-omitted"],
)
def test_complex_refuses_vertices_other_than_0_to_n(vertex_count, simplices):
    with pytest.raises(ValueError, match=f"exactly the vertices 0..{vertex_count - 1}"):
        SimplicialComplex(simplices)


def test_isolated_vertices_kept():
    x = build_complex([[0, 1]], vertex_count=4)
    assert x.counts_by_dim() == [4, 1]


def test_euler_characteristic():
    assert euler_characteristic(triangle_complex()) == 1  # disk
    assert euler_characteristic(cycle_complex(6)) == 0  # circle
    assert euler_characteristic(bowtie_complex()) == 1  # wedge-like, contractible pieces glued
    assert euler_characteristic(wheel_complex(5)) == 1  # disk


def test_maximal_simplices():
    x = bowtie_complex()
    assert x.maximal_simplices() == [(0, 1, 2), (2, 3, 4)]


def test_subdivision_of_an_edge():
    edge = build_complex([[0, 1]])
    sd = barycentric_subdivision(edge)
    assert sd.counts_by_dim() == [3, 2]
    # new vertex ids are the source simplex ids: vertex 2 is the edge's barycenter
    assert sd.maximal_simplices() == [(0, 2), (1, 2)]


def test_subdivision_counts_of_triangle():
    sd = barycentric_subdivision(triangle_complex())
    # 7 old simplices as vertices, 12 chains of length 2, 6 flags
    assert sd.counts_by_dim() == [7, 12, 6]
    assert euler_characteristic(sd) == 1


def test_double_subdivision_of_hexagon_is_24_cycle():
    x = cycle_complex(6)
    for _ in range(2):
        x = barycentric_subdivision(x)
    assert complexes_equal(x, cycle_complex(24)) or (
        x.counts_by_dim() == [24, 24] and euler_characteristic(x) == 0
    )
    # every vertex of a cycle has exactly two cofaces
    assert Counter(v for s in x.simplices if len(s) == 2 for v in s) == dict.fromkeys(range(24), 2)


def test_subdivision_preserves_euler_characteristic():
    for x in (triangle_complex(), bowtie_complex(), wheel_complex(4)):
        sd = barycentric_subdivision(x)
        assert euler_characteristic(sd) == euler_characteristic(x)


def test_doc_roundtrip():
    x = bowtie_complex()
    y = complex_from_doc(complex_to_doc(x))
    assert complexes_equal(x, y)


def test_doc_errors_carry_location():
    with pytest.raises(FormatError) as exc:
        complex_from_doc({"vertices": -1, "maximal_simplices": []})
    assert "$.vertices" in str(exc.value)
    with pytest.raises(FormatError):
        complex_from_doc({"vertices": 3, "maximal_simplices": [[0, 0]]})
    with pytest.raises(FormatError):
        complex_from_doc([1, 2, 3])


def test_closure_cap_is_checked_before_building():
    def too_large(vertices, maximal):
        with pytest.raises(FormatError) as exc:
            complex_from_doc({"vertices": vertices, "maximal_simplices": maximal})
        assert "$.maximal_simplices" in str(exc.value)
        assert "exceeds the maximum" in str(exc.value)

    # a full 18-simplex has 2^19 - 1 simplices, over the cap
    too_large(19, [list(range(19))])
    too_large(MAX_SIMPLICES + 1, [])
    # isolated vertices and the higher faces of the listed simplices share the bound
    higher_faces = 2**17 - 1 - 17
    too_large(MAX_SIMPLICES - higher_faces + 1, [list(range(17))])
    at_cap = complex_from_doc(
        {"vertices": MAX_SIMPLICES - higher_faces, "maximal_simplices": [list(range(17))]}
    )
    assert len(at_cap) == MAX_SIMPLICES


def test_subdivision_size_is_exact():
    fixtures = [a.complex for a in regular_fixtures().values()]
    fixtures += [a.complex for a, _ in irregular_fixtures().values()]
    fixtures += [bowtie_complex(), wheel_complex(5), build_complex([], vertex_count=3)]
    # each fixture complex and its first subdivision
    for x in fixtures:
        sd = barycentric_subdivision(x)
        assert subdivision_size(x) == len(sd)
        assert subdivision_size(sd) == len(barycentric_subdivision(sd))
    # full simplices up to dimension 5 (a 5-simplex has 9,365 chains of faces)
    for n in range(1, 7):
        x = build_complex([list(range(n))])
        assert subdivision_size(x) == len(barycentric_subdivision(x))


def test_subdivision_cap_is_checked_before_listing_chains(monkeypatch):
    # the subdivided triangle has 25 simplices
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 25)
    assert len(barycentric_subdivision(triangle_complex())) == 25
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 24)
    with pytest.raises(ComplexTooLargeError, match="25 simplices exceeds the maximum 24"):
        barycentric_subdivision(triangle_complex())
    monkeypatch.undo()
    # an admitted 11-simplex: sum over k of C(12, k) * Fubini(k) chains of faces
    with pytest.raises(ComplexTooLargeError, match="56183135189 simplices"):
        barycentric_subdivision(build_complex([list(range(12))]))


def assert_matches_reference(x, ref, name):
    assert complexes_equal(x, ref), name
    assert x.faces_codim1 == ref.faces_down, name
    assert x.maximal_simplices() == ref.maximal_simplices(), name


def test_constructor_matches_the_reference():
    # the constructor numbers a closed set as the former closure-then-sort did
    actions = dict(regular_fixtures())
    actions.update((name, action) for name, (action, _) in irregular_fixtures().items())
    quotients = 0
    for name, action in actions.items():
        x = action.complex
        ref = reference_build_complex(x.simplices, x.vertex_count)
        assert_matches_reference(x, ref, name)
        for times in (1, 2):  # the admitted subdivisions, each built from a closed chain list
            if subdivision_size(x) > MAX_SIMPLICES:
                break
            x, ref = barycentric_subdivision(x), reference_subdivision(ref)
            assert_matches_reference(x, ref, f"{name}-sd{times}")
        for regular in (action, subdivide_action(action)):
            if check_regularity(regular).regular:
                y, _, _ = quotient(regular)
                keys = set(regular.orbit_keys)
                assert_matches_reference(y, reference_build_complex(keys, y.vertex_count), name)
                quotients += 1
    assert quotients > len(regular_fixtures())
