"""Reconstruction: unfold a compressed triple into a labeled complex.

Simplices of the output are labeled (y, g) where y is a quotient simplex and
g is the enumeration-minimal representative of a left coset of the stabilizer
of y, i.e. a g with ``coset_reps[g] == g``.  The simplex (y, g) has one vertex
over each vertex class v of y, namely (v, minrep(S(v), g * P(y, v)^-1)), where
P(y, v) composes the transfers down a descending path from y to v: this is the
development of the complex of groups (Bridson-Haefliger III.C).
``check_partial_order`` in ``tests/oracles.py`` cross-checks the result by brute
force: the face relation recomputed over every comparable label pair is the
containment order of the complex.
"""

from __future__ import annotations

from itertools import repeat

from .actions import GroupAction
from .cog import validate_triple
from .complexes import MAX_SIMPLICES, SimplicialComplex
from .errors import ComplexTooLargeError, TripleValidationError


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
    is the vertex set of its facet label.  Two labels g, g' over y span one
    vertex set exactly when g^-1 * g' lies in the intersection of
    P(y, v)^-1 * S(v) * P(y, v) over the vertex classes v of y; the local-group
    law that ``validate_triple`` checks, S(y) = the intersection of
    T(y>=c)^-1 * S(c) * T(y>=c) over the facets c of y, makes that
    intersection S(y) by induction on dimension, so distinct labels span
    distinct vertex sets.

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
