"""Seeded input actions for the benchmark, built without importing equicompress.

Each workload has one fixed size.  The seed changes only the vertex labelling,
the generator presentation and the generator names (whose sorted order is the
order the program sees them in), so every sample of a workload costs about the
same and the median of a run does not jump between size classes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, permutations


@dataclass(frozen=True)
class Workload:
    name: str
    raw_regular: bool  # whether the raw input is already regular
    simplices: int  # simplex count of the regular action
    classes: int  # simplex count of its quotient
    order: int  # group order
    base: object  # rng -> (vertex count, maximal simplices, generator perms)


def _shift(n, k):
    return [(v + k) % n for v in range(n)]


def _compose(a, b):
    """The permutation v -> a[b[v]]."""
    return [a[v] for v in b]


def _closure_order(gens):
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for p in frontier:
            for g in gens:
                new = tuple(p[v] for v in g)
                if new not in seen:
                    seen.add(new)
                    next_frontier.append(new)
        frontier = next_frontier
    return len(seen)


def _large_group(rng):
    # C_64 rotating the boundary of a 256-gon by multiples of 4: one generator
    # is a shift by 4*u with u a unit mod 64, the other an arbitrary shift by 4*w.
    n = 256
    u = rng.randrange(1, 64, 2)
    w = rng.randrange(1, 64)
    edges = [[v, (v + 1) % n] for v in range(n)]
    return n, edges, [_shift(n, 4 * u), _shift(n, 4 * w)]


def _big_stabilizer(rng):
    # S_4 permuting the vertices of a solid tetrahedron, from a random
    # generating pair.
    all_perms = [list(p) for p in permutations(range(4))]
    while True:
        a, b = rng.sample(all_perms, 2)
        if _closure_order([a, b]) == 24:
            return 4, [[0, 1, 2, 3]], [a, b]


def _many_classes(rng):
    # D_2 = {1, h, r, hr} acting on the cone over a 26-gon (apex 26), where h
    # is the half-turn and r the reflection v -> -v; two of the three
    # non-identity elements generate it.
    n = 26
    half_turn = _shift(n, n // 2) + [n]
    reflection = [(-v) % n for v in range(n)] + [n]
    choices = [half_turn, reflection, _compose(half_turn, reflection)]
    triangles = [[v, (v + 1) % n, n] for v in range(n)]
    return n + 1, triangles, rng.sample(choices, 2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-group", True, 512, 8, 64, _large_group),
        Workload("big-stabilizer", False, 2745, 149, 24, _big_stabilizer),
        Workload("many-classes", False, 2913, 737, 4, _many_classes),
    )
}


def action_doc(workload, seed, sample):
    """The input action of one sample: relabelled vertices, named generators."""
    rng = random.Random(f"{workload.name}:{seed}:{sample}")
    n, maximal, gens = workload.base(rng)
    label = list(range(n))
    rng.shuffle(label)
    unlabel = [0] * n
    for v, lv in enumerate(label):
        unlabel[lv] = v
    names = set()
    while len(names) < len(gens):
        names.add(f"g{rng.randrange(16**6):06x}")
    names = sorted(names)
    rng.shuffle(names)
    return {
        "complex": {
            "vertices": n,
            "maximal_simplices": sorted(sorted(label[v] for v in s) for s in maximal),
        },
        "group": {
            "generators": {
                name: [label[g[unlabel[lv]]] for lv in range(n)]
                for name, g in zip(names, gens)
            }
        },
    }


def dump(doc):
    """Serialize as the command-line tool writes its own outputs."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def f_vector(complex_doc):
    """Simplex counts by dimension of the downward closure of a complex doc."""
    faces = {(v,) for v in range(complex_doc["vertices"])}
    for simplex in complex_doc["maximal_simplices"]:
        simplex = sorted(simplex)
        for size in range(1, len(simplex) + 1):
            faces.update(combinations(simplex, size))
    counts = [0] * max((len(s) for s in faces), default=0)
    for face in faces:
        counts[len(face) - 1] += 1
    return counts
