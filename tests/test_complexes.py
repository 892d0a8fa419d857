import pytest

from equicompress import complexes
from equicompress.complexes import (
    MAX_SIMPLICES,
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
    triangle_complex,
    wheel_complex,
)


def test_downward_closure_and_canonical_order():
    x = triangle_complex()
    assert x.vertex_count == 3
    assert x.simplices == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert x.counts_by_dim() == [3, 3, 1]
    assert x.dim == 2


def test_face_and_coface_tables():
    x = triangle_complex()
    top = x.index[(0, 1, 2)]
    assert x.faces_codim1(top) == [x.index[(0, 1)], x.index[(0, 2)], x.index[(1, 2)]]
    assert x.cofaces_up[x.index[(0, 1)]] == [top]
    assert x.faces_codim1(x.index[(0,)]) == []


def test_malformed_simplices_rejected():
    with pytest.raises(MalformedSimplexError):
        build_complex([[0, 0, 1]])
    with pytest.raises(MalformedSimplexError):
        build_complex([[-1, 2]])
    with pytest.raises(MalformedSimplexError):
        build_complex([[0, 5]], vertex_count=3)


def test_isolated_vertices_kept():
    x = build_complex([[0, 1]], vertex_count=4)
    assert x.counts_by_dim() == [4, 1]


def test_euler_characteristic():
    assert triangle_complex().euler_characteristic() == 1  # disk
    assert cycle_complex(6).euler_characteristic() == 0  # circle
    assert bowtie_complex().euler_characteristic() == 1  # wedge-like, contractible pieces glued
    assert wheel_complex(5).euler_characteristic() == 1  # disk


def test_maximal_simplices():
    x = bowtie_complex()
    assert x.maximal_simplices() == [(0, 1, 2), (2, 3, 4)]


def test_subdivision_of_an_edge():
    edge = build_complex([[0, 1]])
    sd = barycentric_subdivision(edge)
    assert sd.target.counts_by_dim() == [3, 2]
    # new vertex ids are the source simplex ids: vertex 2 is the edge's barycenter
    assert sd.target.maximal_simplices() == [(0, 2), (1, 2)]


def test_subdivision_counts_of_triangle():
    sd = barycentric_subdivision(triangle_complex()).target
    # 7 old simplices as vertices, 12 chains of length 2, 6 flags
    assert sd.counts_by_dim() == [7, 12, 6]
    assert sd.euler_characteristic() == 1


def test_double_subdivision_of_hexagon_is_24_cycle():
    x = cycle_complex(6)
    for _ in range(2):
        x = barycentric_subdivision(x).target
    assert complexes_equal(x, cycle_complex(24)) or (
        x.counts_by_dim() == [24, 24] and x.euler_characteristic() == 0
    )
    # every vertex of a cycle has exactly two cofaces
    assert all(len(x.cofaces_up[v]) == 2 for v in range(24))


def test_subdivision_preserves_euler_characteristic():
    for x in (triangle_complex(), bowtie_complex(), wheel_complex(4)):
        sd = barycentric_subdivision(x).target
        assert sd.euler_characteristic() == x.euler_characteristic()


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
        sd = barycentric_subdivision(x).target
        assert subdivision_size(x) == len(sd)
        assert subdivision_size(sd) == len(barycentric_subdivision(sd).target)
    # full simplices up to dimension 5 (a 5-simplex has 9,365 chains of faces)
    for n in range(1, 7):
        x = build_complex([list(range(n))])
        assert subdivision_size(x) == len(barycentric_subdivision(x).target)


def test_subdivision_cap_is_checked_before_listing_chains(monkeypatch):
    # the subdivided triangle has 25 simplices
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 25)
    assert len(barycentric_subdivision(triangle_complex()).target) == 25
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 24)
    with pytest.raises(ComplexTooLargeError, match="25 simplices exceeds the maximum 24"):
        barycentric_subdivision(triangle_complex())
    monkeypatch.undo()
    # an admitted 11-simplex: sum over k of C(12, k) * Fubini(k) chains of faces
    with pytest.raises(ComplexTooLargeError, match="56183135189 simplices"):
        barycentric_subdivision(build_complex([list(range(12))]))
