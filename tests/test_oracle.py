"""Independent brute-force reconstruction, cross-checked against the engine.

The oracle works directly with cosets as frozensets: points are (class,
coset) pairs, the face relation is recomputed from scratch for every pair,
and the complex is assembled from the transitive closure of that relation.
No minrep-style canonical representatives are involved except to order the
vertices at the very end.
"""

from equicompress.compress import compress
from equicompress.complexes import build_complex, complexes_equal
from equicompress.families import regular_fixtures
from equicompress.reconstruct import reconstruct

from relabel import moved_lifts, relabelled


def oracle_reconstruct(triple):
    group, quotient = triple.group, triple.quotient

    def coset(g, stab):
        return frozenset(group.prod(g, s) for s in stab.elements)

    points = []
    for y in range(len(quotient)):
        stab = triple.stabilizers[y]
        for c in sorted({coset(g, stab) for g in range(group.order)}, key=min):
            points.append((y, c))

    def covers(upper, lower):
        (y, c), (y2, c2) = upper, lower
        if y2 not in quotient.faces_codim1[y]:
            return False
        t_inv = group.inv(triple.transfers[y, y2])
        return {group.prod(g, t_inv) for g in c} <= c2

    below = {p: {p} for p in points}
    for d in range(1, quotient.dim + 1):
        for upper in points:
            if len(quotient.simplices[upper[0]]) != d + 1:
                continue
            for lower in points:
                if len(quotient.simplices[lower[0]]) == d and covers(upper, lower):
                    below[upper] |= below[lower]

    vertex_points = [p for p in points if len(quotient.simplices[p[0]]) == 1]
    vertex_points.sort(key=lambda p: (p[0], min(p[1])))
    vertex_id = {p: i for i, p in enumerate(vertex_points)}
    simplices = [
        sorted(vertex_id[q] for q in below[p] if len(quotient.simplices[q[0]]) == 1)
        for p in points
    ]
    return build_complex(simplices, vertex_count=len(vertex_points))


def micro_fixtures():
    for name, action in regular_fixtures().items():
        if action.group.order <= 6 and len(action.complex) <= 20:
            yield name, action


def test_micro_fixture_set_is_nonempty():
    names = [name for name, _ in micro_fixtures()]
    assert "trivial-triangle" in names
    assert "hexagon-antipodal" in names
    assert "cycle-2" in names


def test_oracle_matches_engine_on_micro_fixtures():
    for name, action in micro_fixtures():
        triple = compress(action)
        rc = reconstruct(triple)
        oracle = oracle_reconstruct(triple)
        assert complexes_equal(oracle, rc.complex), name


def test_oracle_matches_engine_under_moved_lifts():
    for name, action in micro_fixtures():
        copy, to_copy = relabelled(action)
        if action.group.order > 1:
            assert moved_lifts(action, copy, to_copy) >= 1, name
        triple = compress(copy)
        rc = reconstruct(triple)
        assert complexes_equal(oracle_reconstruct(triple), rc.complex), name
