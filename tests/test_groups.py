import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicompress.actions import GroupAction
from equicompress.complexes import build_complex
from equicompress.errors import FormatError, GroupTooLargeError
from equicompress.groups import (
    FiniteGroup,
    Subgroup,
    enumerate_from_generators,
    group_from_doc,
    group_to_doc,
    uniqsort,
)

SIGMA = [1, 0, 2, 4, 3]
TAU = [3, 4, 2, 0, 1]


def klein_four():
    return enumerate_from_generators([SIGMA, TAU], 5)


def dihedral_6():
    # rotation and reflection of a hexagon's vertices
    rot = [1, 2, 3, 4, 5, 0]
    ref = [0, 5, 4, 3, 2, 1]
    return enumerate_from_generators([rot, ref], 6)


def test_uniqsort():
    assert uniqsort([3, 1, 3, 0, 1]) == [0, 1, 3]
    assert uniqsort([]) == []


def closed_with_permutations(generators, n):
    """The group the generators close to, and each element's permutation of 0..n-1."""
    action = GroupAction.from_generator_perms(generators, build_complex([], vertex_count=n))
    perms = [
        tuple(action.act_on_simplex(g, v) for v in range(n)) for g in range(action.group.order)
    ]
    return action.group, perms


def test_bfs_enumeration_order():
    g, perms = closed_with_permutations([SIGMA, TAU], 5)
    assert g.order == 4
    # identity first, then generators in input order, then products
    assert perms[0] == (0, 1, 2, 3, 4)
    assert perms[1] == tuple(SIGMA)
    assert perms[2] == tuple(TAU)
    assert g.generators == [1, 2]


def test_trivial_group():
    g = enumerate_from_generators([], 3)
    assert g.order == 1
    assert g.prod(0, 0) == 0
    assert g.inv(0) == 0


def shift(n, k):
    return [(v + k) % n for v in range(n)]


def test_product_and_inverse():
    # D_2 as the half-turn and reflection of a cone over a 26-gon (apex 26)
    half_turn = shift(26, 13) + [26]
    reflection = [(-v) % 26 for v in range(26)] + [26]
    cases = [
        ([[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]], 6, 12),
        ([shift(256, 4)], 256, 64),
        ([[1, 0, 2, 3], [1, 2, 3, 0]], 4, 24),
        ([half_turn, reflection], 27, 4),
        ([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]], 6, 720),
    ]
    for generators, n, order in cases:
        g, perms = closed_with_permutations(generators, n)
        assert g.order == order
        for a in range(g.order):
            assert g.prod(a, g.inv(a)) == 0
            assert g.prod(g.inv(a), a) == 0
            pa = perms[a]
            for b in range(g.order):
                # prod composes the permutations: (a*b)(v) = a(b(v))
                assert perms[g.prod(a, b)] == tuple([pa[v] for v in perms[b]])


def test_minrep_worked_example():
    g = klein_four()
    h = Subgroup(g, [0, 1])  # {e, sigma}
    # coset tau*{e, sigma} = {tau, tau*sigma}; tau has the smaller index
    assert g.minrep(h, 2) == 2
    assert g.minrep(h, 3) == 2
    assert uniqsort(g.minrep(h, x) for x in range(4)) == [0, 2]


def test_subgroup_validation():
    g = klein_four()
    with pytest.raises(ValueError):
        Subgroup(g, [1, 2])  # no identity
    with pytest.raises(ValueError):
        Subgroup(g, [0, 1, 2])  # not closed: sigma*tau missing
    h = Subgroup(g, [0, 1, 2, 3])
    assert len(h) == 4
    assert 3 in h


def test_max_order_guard():
    with pytest.raises(GroupTooLargeError):
        enumerate_from_generators([[1, 2, 3, 4, 0]], 5, max_order=3)


def test_doc_roundtrip_preserves_enumeration():
    g = dihedral_6()
    g2 = group_from_doc(group_to_doc(g))
    assert g2.order == g.order
    assert g == g2


def test_group_from_doc_rejects_bad_order():
    doc = group_to_doc(klein_four())
    doc["order"] = 5
    with pytest.raises(FormatError):
        group_from_doc(doc)


def test_group_equality_detects_difference():
    assert klein_four() != dihedral_6()
    c4 = enumerate_from_generators([[1, 2, 3, 0]], 4)
    k4 = klein_four()
    assert c4.order == k4.order == 4
    assert c4 != k4


@st.composite
def group_and_element(draw):
    name = draw(st.sampled_from(["klein", "d6", "c5"]))
    if name == "klein":
        g = klein_four()
    elif name == "d6":
        g = dihedral_6()
    else:
        g = enumerate_from_generators([[1, 2, 3, 4, 0]], 5)
    x = draw(st.integers(min_value=0, max_value=g.order - 1))
    return g, x


@settings(max_examples=60, deadline=None)
@given(group_and_element())
def test_minrep_is_coset_invariant(gx):
    g, x = gx
    # any subgroup generated by a single element
    members = {0}
    cur = x
    while cur not in members:
        members.add(cur)
        cur = g.prod(cur, x)
    h = Subgroup(g, members)
    rep = g.minrep(h, x)
    assert rep == min(g.prod(x, s) for s in h.elements)
    # the representative lies in the coset and is idempotent under minrep
    assert any(g.prod(x, s) == rep for s in h.elements)
    assert g.minrep(h, rep) == rep
    for s in h.elements:
        assert g.minrep(h, g.prod(x, s)) == rep


@settings(max_examples=30, deadline=None)
@given(group_and_element())
def test_cosets_partition_the_group(gx):
    g, x = gx
    members = {0}
    cur = x
    while cur not in members:
        members.add(cur)
        cur = g.prod(cur, x)
    h = Subgroup(g, members)
    reps = uniqsort(g.minrep(h, a) for a in range(g.order))
    assert len(reps) * len(h) == g.order  # Lagrange
    covered = {g.prod(r, s) for r in reps for s in h.elements}
    assert len(covered) == g.order
