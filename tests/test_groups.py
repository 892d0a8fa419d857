import json
import random
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicompress import groups
from equicompress.actions import GroupAction
from equicompress.cli import main
from equicompress.complexes import build_complex
from equicompress.errors import FormatError, GroupTooLargeError
from equicompress.families import irregular_fixtures, regular_fixtures
from equicompress.groups import (
    FiniteGroup,
    Subgroup,
    enumerate_from_generators,
    extend_subgroup,
    group_from_doc,
    group_to_doc,
)

from reference_groups import reference_group_from_doc
from relabel import renumbered_s3_triangle

SIGMA = [1, 0, 2, 4, 3]
TAU = [3, 4, 2, 0, 1]


def klein_four():
    return enumerate_from_generators([SIGMA, TAU], 5)


def dihedral_6():
    # rotation and reflection of a hexagon's vertices
    rot = [1, 2, 3, 4, 5, 0]
    ref = [0, 5, 4, 3, 2, 1]
    return enumerate_from_generators([rot, ref], 6)


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
    assert sorted({g.minrep(h, x) for x in range(4)}) == [0, 2]


def test_subgroup_validation():
    g = klein_four()
    with pytest.raises(ValueError):
        Subgroup(g, [1, 2])  # no identity
    with pytest.raises(ValueError):
        Subgroup(g, [0, 1, 2])  # not closed: sigma*tau missing
    h = Subgroup(g, [0, 1, 2, 3])
    assert len(h) == 4
    assert 3 in h


def brute_force_is_subgroup(g, members):
    """The |H|^2 reference: a finite set holding the identity and closed under products."""
    members = set(members)
    return 0 in members and all(g.prod(a, b) in members for a in members for b in members)


def error_message(build, members):
    """The ValueError message building a subgroup of ``members`` raises, or None."""
    try:
        build(members)
    except ValueError as exc:
        return str(exc)
    return None


def subgroup_verdict(g, members):
    try:
        Subgroup(g, members)
    except ValueError as exc:
        assert "identity" in str(exc) or str(exc) == "subgroup not closed under multiplication"
        return False
    return True


def test_subgroup_validation_matches_brute_force():
    rng = random.Random(6)
    c2_cubed = enumerate_from_generators([[v ^ (1 << i) for v in range(8)] for i in range(3)], 8)
    c12 = enumerate_from_generators([shift(12, 1)], 12)
    s4 = enumerate_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]], 4)
    cases = []
    # every subset of C_2^3, and every subset holding the identity of C_12 and D_6
    cases += [(c2_cubed, s) for k in range(9) for s in combinations(range(8), k)]
    for g in (c12, dihedral_6()):
        cases += [(g, (0, *s)) for k in range(12) for s in combinations(range(1, 12), k)]
    # S_4: subgroups generated by two elements, each with one element dropped or added
    for _ in range(1000):
        generators = rng.sample(range(24), 2)
        members = [0]
        for a in members:  # grows while walked
            for s in generators:
                if s4.prod(a, s) not in members:
                    members.append(s4.prod(a, s))
        members = set(members)
        cases.append((s4, members))
        cases.append((s4, members - {rng.choice(range(1, 24))}))
        cases.append((s4, members | {rng.randrange(24)}))
        cases.append((s4, {0, *rng.sample(range(1, 24), rng.randrange(1, 12))}))
    verdicts = [subgroup_verdict(g, m) for g, m in cases]
    assert verdicts == [brute_force_is_subgroup(g, m) for g, m in cases]
    assert 0 < sum(verdicts) < len(verdicts)
    # the interned constructor gives the same verdicts with the same messages
    assert [error_message(g.subgroup, m) for g, m in cases] == [
        error_message(partial(Subgroup, g), m) for g, m in cases
    ]


def test_extend_subgroup_matches_the_closure_under_products():
    rng = random.Random(10)
    s4 = enumerate_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]], 4)
    for _ in range(300):
        generators = rng.choices(range(24), k=rng.randrange(1, 4))
        elements, reached = [0], bytearray(24)
        reached[0] = 1
        for k, g in enumerate(generators):
            extend_subgroup(s4._mult, elements, reached, g)
            closure = [0]
            for a in closure:  # grows while walked
                for s in generators[: k + 1]:
                    if s4.prod(a, s) not in closure:
                        closure.append(s4.prod(a, s))
            assert sorted(elements) == sorted(closure), generators[: k + 1]
            assert [h for h in range(24) if reached[h]] == sorted(closure)


def test_max_order_guard(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 3)
    with pytest.raises(GroupTooLargeError, match="maximum order 3"):
        enumerate_from_generators([[1, 2, 3, 4, 0]], 5)


def test_subgroup_rejects_an_index_past_the_group():
    g = klein_four()
    with pytest.raises(ValueError, match="element index 4 out of range"):
        g.subgroup([0, g.order])
    assert g.subgroup([0, 1]).elements == [0, 1]  # the refused set is not kept


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


@pytest.mark.parametrize(
    "doc",
    [
        # S_3 fixing 3, 4 and 5: it closes to the stated order but is not regular
        {"order": 6, "generators": [[1, 2, 0, 3, 4, 5], [1, 0, 2, 3, 4, 5]]},
        # rows generating C_2, of a group stated to have order 4
        {"order": 4, "generators": [[1, 0, 3, 2]]},
        {"order": 2, "generators": []},
        # S_4 on its 4 points: transitive, every 0-image reached, yet of order 24
        {"order": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
        # two rows carrying 0 to 1 that differ elsewhere
        {"order": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
    ],
    ids=["s3-fixing-3-points", "smaller-group", "no-rows", "s4-on-4-points", "s3-on-3-points"],
)
def test_group_doc_that_is_not_a_regular_representation_is_refused(doc):
    with pytest.raises(FormatError) as exc:
        group_from_doc(doc)
    assert exc.value.location == "$.group.generators"


def test_group_doc_is_read_in_its_own_numbering():
    # C_4 generated by 3, its rows listed in an order no closure would find
    doc = {"order": 4, "generators": [[3, 0, 1, 2]]}
    group = group_from_doc(doc)
    assert group.generators == [3]
    assert [group.prod(3, x) for x in range(4)] == [3, 0, 1, 2]
    assert group_to_doc(group) == doc


def test_inverses_from_the_walk_match_a_row_scan():
    fixtures = [*regular_fixtures().values(), *(a for a, _ in irregular_fixtures().values())]
    closed = [action.group for action in fixtures]
    # C_64 x C_64, rotating two 64-cycles independently
    left = shift(64, 1) + list(range(64, 128))
    right = list(range(64)) + [64 + v for v in shift(64, 1)]
    closed.append(enumerate_from_generators([left, right], 128))
    read = [group_from_doc(group_to_doc(g)) for g in closed]
    read.append(group_from_doc(renumbered_s3_triangle()[2]["group"]))  # no closure's numbering
    for group in closed + read:
        table = group._mult
        assert [group.inv(h) for h in range(group.order)] == [row.index(0) for row in table]


def random_group_documents(rng, count):
    """Seeded group documents, in turn: regular rows of a random group,
    such rows with two entries of one row swapped, and random permutations."""
    docs = []
    while len(docs) < count:
        kind = len(docs) % 3
        if kind == 2:
            n = rng.randrange(1, 13)
            rows = [rng.sample(range(n), n) for _ in range(rng.randrange(4))]
            docs.append({"order": n, "generators": rows})
            continue
        # one permutation of up to 9 points, or two of up to 5, closing to order 2..60
        n = 0
        while not 2 <= n <= 60:
            k = rng.randrange(1, 3)
            degree = rng.randrange(3, 10 if k == 1 else 6)
            perms = [rng.sample(range(degree), degree) for _ in range(k)]
            group = enumerate_from_generators(perms, degree)
            n = group.order
        # the group's own generators, or random elements that may generate less
        picks = group.generators
        if rng.random() < 0.5:
            picks = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
        # renumbered by a random phi fixing the identity: row phi(g) maps phi(x) to phi(g*x)
        phi = [0, *rng.sample(range(1, n), n - 1)]
        rows = [[0] * n for _ in picks]
        for row, g in zip(rows, picks):
            for x in range(n):
                row[phi[x]] = phi[group.prod(g, x)]
        if kind == 1 and n > 1:
            row = rng.choice(rows)
            i, j = rng.sample(range(n), 2)
            row[i], row[j] = row[j], row[i]
        docs.append({"order": n, "generators": rows})
    return docs


def group_doc_verdict(read, doc):
    """The table ``read`` builds from the document, or its refusal as text."""
    try:
        return read(doc)._mult
    except FormatError as exc:
        return str(exc)


NOT_REGULAR = "not a regular representation"


def test_group_doc_check_matches_the_reference():
    docs = random_group_documents(random.Random(18), 2400)
    verdicts = [group_doc_verdict(group_from_doc, doc) for doc in docs]
    assert verdicts == [group_doc_verdict(reference_group_from_doc, doc) for doc in docs]
    refused = sum(isinstance(v, str) and NOT_REGULAR in v for v in verdicts)
    accepted = sum(not isinstance(v, str) for v in verdicts)
    assert refused > 300 and accepted > 300, (refused, accepted)


def test_refused_group_docs_exit_2_at_the_generators(tmp_path, capsys):
    docs = random_group_documents(random.Random(18), 300)
    verdicts = [(doc, group_doc_verdict(reference_group_from_doc, doc)) for doc in docs]
    refused = [(doc, v) for doc, v in verdicts if isinstance(v, str) and NOT_REGULAR in v][:20]
    assert len(refused) == 20
    path = tmp_path / "triple.json"
    for doc, message in refused:
        assert message.startswith("$.group.generators: ")
        triple = {
            "group": doc,
            "quotient": {"vertices": 1, "maximal_simplices": []},
            "stabilizers": [[0]],
            "transfers": [],
        }
        path.write_text(json.dumps(triple))
        assert main(["validate-triple", "--triple", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
    reps = sorted({g.minrep(h, a) for a in range(g.order)})
    assert len(reps) * len(h) == g.order  # Lagrange
    covered = {g.prod(r, s) for r in reps for s in h.elements}
    assert len(covered) == g.order
