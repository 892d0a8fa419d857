"""Test reference: the complex layer as it was before ids moved into the constructor.

The constructor below takes simplices already in canonical order and sorts
each facet list; ``reference_build_complex`` closes and sorts its input and
``reference_subdivision`` buckets the chains by length.  The code is kept as it
was, with its names prefixed, so that the current layer can be compared with
it simplex by simplex and facet by facet.
"""

from itertools import combinations

from equicompress.errors import MalformedSimplexError


class ReferenceComplex:
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

    def maximal_simplices(self):
        return [s for i, s in enumerate(self.simplices) if not self.cofaces_up[i]]


def reference_build_complex(maximal_simplices, vertex_count=None):
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
    return ReferenceComplex(vertex_count, simplices)


def reference_subdivision(complex_):
    """Subdivide: new vertices are simplices, new simplices are chains of faces."""
    index = complex_.index
    chains_at = []  # per simplex, the chains topped at it
    by_length = [[] for _ in range(complex_.dim + 1)]
    for sid, simplex in enumerate(complex_.simplices):
        # the simplex alone, or over a chain topped at one of its proper faces
        chains = [(sid,)]
        for k in range(1, len(simplex)):
            for face in combinations(simplex, k):
                chains.extend(chain + (sid,) for chain in chains_at[index[face]])
        chains_at.append(chains)
        for chain in chains:
            by_length[len(chain) - 1].append(chain)
    return ReferenceComplex(
        len(complex_), [chain for bucket in by_length for chain in sorted(bucket)]
    )
