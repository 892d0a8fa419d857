"""Test reference: the action layer as it was with one simplex row per group element.

``ReferenceAction`` tabulates the image of every simplex under every element
of the group, composing each element's row along its discovery path, and
reads orbits, stabilizers and transporters off that |G| x |X| table by
scanning it.  The code is kept as it was, with its names prefixed, so that the
action built from the generators alone can be compared with it element by
element and simplex by simplex.
"""

from equicompress.errors import NotAnAutomorphismError
from equicompress.groups import Subgroup


def reference_compose_rows(group, generator_rows, degree):
    """Extend one permutation of 0..degree-1 per generator to all elements.

    Along a breadth-first tree of the Cayley graph, read with ``group.prod``,
    row h = g*s maps x to row[g][row[s][x]]; checking every Cayley-graph edge
    g -> g*s makes the rows a homomorphism.
    """
    steps = list(zip(group.generators, generator_rows))
    rows = [None] * group.order
    rows[0] = list(range(degree))
    reached = [0]
    for g in reached:  # grows while walked
        for s, gen_row in steps:
            h = group.prod(g, s)
            if rows[h] is None:
                rows[h] = [rows[g][x] for x in gen_row]
                reached.append(h)
    for g, row in enumerate(rows):
        for s, gen_row in steps:
            if rows[group.prod(g, s)] != [row[x] for x in gen_row]:
                raise NotAnAutomorphismError(
                    "vertex tables are not compatible with the group multiplication"
                )
    return rows


class ReferenceAction:
    def __init__(self, group, complex_, generator_images):
        self.group = group
        self.complex = complex_
        generator_rows = []
        for g, row in zip(group.generators, generator_images):
            table = []
            for simplex in complex_.simplices:
                sid = complex_.index.get(tuple(sorted(row[v] for v in simplex)))
                if sid is None:
                    raise NotAnAutomorphismError(
                        f"element {g} maps simplex {simplex} outside the complex"
                    )
                table.append(sid)
            generator_rows.append(table)
        self._simplex_images = reference_compose_rows(group, generator_rows, len(complex_))

    def act_on_simplex(self, g, sid):
        return self._simplex_images[g][sid]

    @property
    def orbit_ids(self):
        ids = [-1] * len(self.complex)
        next_id = 0
        for sid in range(len(ids)):
            if ids[sid] < 0:
                for row in self._simplex_images:
                    ids[row[sid]] = next_id
                next_id += 1
        return ids

    def stab(self, sid):
        return Subgroup(
            self.group, [g for g, table in enumerate(self._simplex_images) if table[sid] == sid]
        )

    def trans(self, sid, target):
        if sid == target:
            return 0
        for g in range(self.group.order):
            if self._simplex_images[g][sid] == target:
                return g
        return None
