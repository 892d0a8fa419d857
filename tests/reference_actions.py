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

    Row h = parent(h)*s maps x to row[parent(h)][row[s][x]]; checking
    every Cayley-graph edge g -> g*s makes the rows a homomorphism.
    """
    rows = [list(range(degree))]
    for h in range(1, group.order):
        parent_row = rows[group._parents[h]]
        rows.append([parent_row[x] for x in generator_rows[group._last_generators[h]]])
    for g, row in enumerate(rows):
        for i, gen_row in enumerate(generator_rows):
            if rows[group._right[g][i]] != [row[x] for x in gen_row]:
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
