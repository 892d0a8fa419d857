"""Reconstruction: unfold a compressed triple into a labeled complex.

Simplices of the output are labeled (y, g) where y is a quotient simplex and
g is the enumeration-minimal representative of a left coset of the stabilizer
of y, i.e. a g with ``coset_reps[g] == g``.  The simplex (y, g) has one vertex
over each vertex class v of y, namely (v, minrep(S(v), g * P(y, v)^-1)), where
P(y, v) composes the transfers down a descending path from y to v: this is the
development of the complex of groups (Bridson-Haefliger III.C).
The labels are assembled one dimension at a time: the coset minima once per
distinct stabilizer, the pullbacks P(y, v)^-1 of all d-classes as d + 1
columns, and one column of vertex ids per vertex position over every label of
the dimension, each a pass of ``map`` over ``group.prod``, ``group.minrep``
and the per-vertex-class dicts of coset minima.
``check_partial_order`` in ``tests/oracles.py`` cross-checks the result by brute
force: the face relation recomputed over every comparable label pair is the
containment order of the complex.
"""

from itertools import chain, compress, count, repeat
from operator import itemgetter

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
    simplices, faces, starts = quotient.simplices, quotient.faces_codim1, quotient._starts
    reps_of = {}  # stabilizer id -> each coset's minimum, ascending
    for s in stabilizers:
        if id(s) not in reps_of:
            reps_of[id(s)] = sorted(set(s.coset_reps))
    reps = list(map(reps_of.__getitem__, map(id, stabilizers)))
    counts = list(map(len, reps))
    classes = chain.from_iterable(map(repeat, range(len(reps)), counts))
    labels = list(zip(classes, chain.from_iterable(reps)))  # (quotient id, coset minimum)

    # the vertices come first, numbered in label order: zip stops at the end
    # of each class's minima before it draws an id
    n = quotient.vertex_count
    ids = count()
    vertex_ids = [dict(zip(r, ids)) for r in reps[:n]]  # per vertex class, minimum -> vertex id
    vertex_sets = list(zip(range(next(ids))))  # per label, the sorted tuple of its vertex ids
    pullbacks = [(0,)] * n  # per class y, P(y, v)^-1 for its vertex classes v, in order

    for d, start, stop in zip(count(1), starts[1:], starts[2:]):
        # facet 0 of y, y less its last vertex, gives the first d pullbacks;
        # facet 1, y less the one before, ends with the last vertex class's
        ys = range(start, stop)
        firsts = list(map(itemgetter(0), faces[start:stop]))
        seconds = list(map(itemgetter(1), faces[start:stop]))
        downs = list(map(group.inv, map(transfers.__getitem__, zip(ys, firsts))))
        below = list(map(pullbacks.__getitem__, firsts))
        columns = [list(map(group.prod, downs, map(itemgetter(k), below))) for k in range(d)]
        last_downs = map(group.inv, map(transfers.__getitem__, zip(ys, seconds)))
        lasts = map(itemgetter(d - 1), map(pullbacks.__getitem__, seconds))
        columns.append(list(map(group.prod, last_downs, lasts)))
        pullbacks += zip(*columns)

        # one column per vertex position: the id of vertex (v, minrep(S(v), g * p))
        # for every label g of the dimension; vertex ids ascend with their
        # class, so rows are sorted
        per_class = counts[start:stop]
        gs = list(chain.from_iterable(reps[start:stop]))
        positions = []
        for k, pulled in enumerate(columns):
            vs = list(map(itemgetter(k), simplices[start:stop]))
            stabs = chain.from_iterable(map(repeat, map(stabilizers.__getitem__, vs), per_class))
            ps = chain.from_iterable(map(repeat, pulled, per_class))
            lookups = chain.from_iterable(map(repeat, map(vertex_ids.__getitem__, vs), per_class))
            cosets = map(group.minrep, stabs, map(group.prod, gs, ps))
            positions.append(map(dict.__getitem__, lookups, cosets))
        vertex_sets += zip(*positions)

    complex_ = SimplicialComplex(vertex_sets)
    ordered = [None] * len(complex_)
    for sid, label in zip(map(complex_.index.__getitem__, vertex_sets), labels):
        ordered[sid] = label
    return ReconstructedComplex(complex_, ordered, triple)


def reconstruction_to_doc(rc):
    """The reconstruction's document: its complex, and the label per simplex.

    G is transitive on each class's labels, so a label is maximal exactly when
    its class is maximal in the quotient, whose facets ``reconstruct`` read:
    the reconstruction's own facet table is never built.
    """
    maximal = set(rc.triple.quotient.maximal_ids())
    keep = map(maximal.__contains__, map(itemgetter(0), rc.labels))
    return {
        "complex": {
            "vertices": rc.complex.vertex_count,
            "maximal_simplices": list(map(list, compress(rc.complex.simplices, keep))),
        },
        "labels": list(map(list, rc.labels)),
    }


def recovered_action(rc):
    """The group action on a reconstruction: h * (y, g) = (y, minrep(S(y), h*g))."""
    triple = rc.triple
    group = triple.group
    n = rc.complex.vertex_count
    vertex_labels = rc.labels[:n]  # vertex v is simplex v
    vertex_ids = dict(zip(vertex_labels, range(n)))
    images = [
        [
            vertex_ids[y, group.minrep(triple.stabilizers[y], group.prod(h, g))]
            for y, g in vertex_labels
        ]
        for h in group.generators
    ]
    return GroupAction(group, rc.complex, images)
