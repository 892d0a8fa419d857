"""Reconstruction: unfold a compressed triple into a labeled complex.

Simplices of the output are labeled (y, g) where y is a quotient simplex and
g is the enumeration-minimal representative of a left coset of the stabilizer
of y, i.e. a g with ``coset_reps[g] == g``.  The simplex (y, g) has one vertex
over each vertex class v of y, namely (v, minrep(S(v), g * P(y, v)^-1)), where
P(y, v) composes the transfers down a descending path from y to v: this is the
development of the complex of groups (Bridson-Haefliger III.C).
"""

from __future__ import annotations

from itertools import repeat

from .actions import GroupAction
from .cog import validate_triple
from .complexes import MAX_SIMPLICES, SimplicialComplex
from .errors import (
    BruteForceBoundError,
    ComplexTooLargeError,
    ReconstructionIntegrityError,
    TripleValidationError,
)


class ReconstructedComplex:
    def __init__(self, complex_, labels, triple):
        self.complex = complex_
        self.labels = labels  # Z simplex id -> (quotient id, coset representative)
        self.triple = triple

    def __len__(self):
        return len(self.labels)


def reconstruct(triple):
    """Run the basic construction on a validated triple.

    Vertex class v is simplex v of the quotient, as ``SimplicialComplex``
    requires of every complex.  The result is closed:
    ``validate_triple`` checks containment and length-2 path independence, and
    any two descending paths from y to v are joined by swaps of adjacent steps,
    each changing the composite by an element of S(mid) that the rest of the
    path conjugates into S(v).  So g * P(y, v)^-1 * S(v) depends neither on the
    path nor on the representative of g, and each facet of a label's vertex set
    is the vertex set of its facet label.

    Raises ComplexTooLargeError, before any label is listed, when the
    reconstruction would hold more than ``MAX_SIMPLICES`` simplices.
    """
    report = validate_triple(triple)
    if not report.valid:
        raise TripleValidationError(report)

    group, quotient, transfers = triple.group, triple.quotient, triple.transfers
    stabilizers = triple.stabilizers
    size = sum(group.order // len(s) for s in stabilizers)  # one label per coset
    if size > MAX_SIMPLICES:
        raise ComplexTooLargeError(
            f"reconstruction of {size} simplices exceeds the maximum {MAX_SIMPLICES}"
        )
    pullbacks = []  # per class y, P(y, v)^-1 for its vertex classes v, in order
    vertex_ids = []  # per vertex class v, coset representative -> vertex id
    labels = []  # (quotient id, coset representative), in the order built
    vertex_sets = []  # per label, the strictly sorted tuple of its vertex ids

    for y, simplex in enumerate(quotient.simplices):  # canonical order: faces first
        reps = sorted(set(stabilizers[y].coset_reps))  # each coset's minimum
        labels.extend(zip(repeat(y), reps))
        if len(simplex) == 1:
            pullbacks.append([0])
            ids = range(len(vertex_sets), len(vertex_sets) + len(reps))
            vertex_ids.append(dict(zip(reps, ids)))
            vertex_sets.extend(zip(ids))
            continue
        first, second = quotient.faces_codim1[y][:2]  # y less its last vertex; less the one before
        down = group.inv(transfers[y, first])
        pullbacks.append([group.prod(down, p) for p in pullbacks[first]])
        pullbacks[y].append(group.prod(group.inv(transfers[y, second]), pullbacks[second][-1]))
        # one column per vertex class v: the id of vertex (v, minrep(S(v), g * p))
        # for every label g; vertex ids ascend with their class, so rows are sorted
        columns = [
            map(
                vertex_ids[v].__getitem__,
                map(group.minrep, repeat(stabilizers[v]), map(group.prod, reps, repeat(p))),
            )
            for v, p in zip(simplex, pullbacks[y])
        ]
        vertex_sets.extend(zip(*columns))

    if len(set(vertex_sets)) != len(vertex_sets):
        raise ReconstructionIntegrityError("two labels span the same vertex set")
    complex_ = SimplicialComplex(sum(map(len, vertex_ids)), vertex_sets)
    ordered = [None] * len(complex_)
    for sid, label in zip(map(complex_.index.__getitem__, vertex_sets), labels):
        ordered[sid] = label
    return ReconstructedComplex(complex_, ordered, triple)


def recovered_action(rc):
    """The group action on a reconstruction: h * (y, g) = (y, minrep(S(y), h*g))."""
    triple = rc.triple
    group = triple.group
    vertex_ids = {}
    for sid, label in enumerate(rc.labels):
        if len(rc.complex.simplices[sid]) == 1:
            vertex_ids[label] = rc.complex.simplices[sid][0]
    images = []
    for h in group.generators:
        row = [0] * rc.complex.vertex_count
        for (y, g), v in vertex_ids.items():
            moved = group.minrep(triple.stabilizers[y], group.prod(h, g))
            row[v] = vertex_ids[(y, moved)]
        images.append(row)
    return GroupAction(group, rc.complex, images)


def check_partial_order(rc):
    """Brute-force verification that the face relation is a partial order.

    Recomputes the relation for every comparable label pair (any codimension,
    transfers composed along a canonical descending path), checks reflexivity,
    antisymmetry, transitivity and independence of the coset representative,
    and confirms it coincides with the containment order of the complex.
    Raises BruteForceBoundError past 10^4 comparable label pairs.
    """
    triple = rc.triple
    group, quotient, transfers = triple.group, triple.quotient, triple.transfers

    descendants = [None] * len(quotient)

    def descend(y):
        if descendants[y] is None:
            out = {y}
            for child in quotient.faces_codim1[y]:
                out.update(descend(child))
            descendants[y] = out
        return descendants[y]

    path_transfer = {}

    def transfer_along(y, target):
        if y == target:
            return 0
        key = (y, target)
        if key not in path_transfer:
            child = next(c for c in quotient.faces_codim1[y] if target in descend(c))
            path_transfer[key] = group.prod(transfer_along(child, target), transfers[y, child])
        return path_transfer[key]

    comparable = [
        (a, b)
        for a, (ya, _) in enumerate(rc.labels)
        for b, (yb, _) in enumerate(rc.labels)
        if yb in descend(ya)
    ]
    if len(comparable) > 10**4:
        raise BruteForceBoundError(
            f"{len(comparable)} candidate relations exceed the bound 10000"
        )

    def related(a, b):
        ya, ga = rc.labels[a]
        yb, gb = rc.labels[b]
        if yb not in descend(ya):
            return False
        stab_b = triple.stabilizers[yb]
        phi = transfer_along(ya, yb)
        verdicts = set()
        for s in triple.stabilizers[ya].elements:  # representative independence
            shifted = group.prod(ga, s)
            pulled = group.prod(shifted, group.inv(phi))
            verdicts.add(group.minrep(stab_b, pulled) == gb)
        if len(verdicts) != 1:
            raise ReconstructionIntegrityError(
                f"face test for {rc.labels[a]} over {rc.labels[b]} depends on the "
                f"coset representative"
            )
        return verdicts.pop()

    relation = {(a, b) for a, b in comparable if related(a, b)}

    for a in range(len(rc.labels)):
        if (a, a) not in relation:
            return False
    for a, b in relation:
        if a != b and (b, a) in relation:
            return False
    by_upper = {}
    for a, b in relation:
        by_upper.setdefault(a, set()).add(b)
    for a, b in relation:
        for c in by_upper.get(b, ()):
            if (a, c) not in relation:
                return False

    containment = {
        (a, b)
        for a in range(len(rc.labels))
        for b in range(len(rc.labels))
        if set(rc.complex.simplices[b]) <= set(rc.complex.simplices[a])
    }
    return relation == containment
