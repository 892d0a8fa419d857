"""Group actions on simplicial complexes, regularity checking, quotients.

An action is regular when (1) every setwise simplex stabilizer fixes the
simplex's vertices pointwise, (2) any simplex whose vertices can be matched
orbit-by-orbit to another simplex's vertices already lies in that simplex's
orbit, and (3) the vertices of each simplex occupy pairwise distinct vertex
orbits.  Conditions (1) and (2) are the classical ones; (3) is the extra
requirement that makes the quotient a simplicial complex (without it a free
rotation of a polygon boundary would collapse an edge onto a single vertex).

An action keeps one simplex-image row per generator, tabulated from the
generator's vertex permutation by ``SimplicialComplex.image_ids``; no other
element's row is built.  The row starts as the permutation itself, since
vertex v is simplex v, and reads each higher dimension in one column pass.  A
breadth-first walk along the generator rows gives the orbits, numbered by
their minimal member, and a transversal t[x] carrying each orbit's minimum to
x.  The stabilizer of a minimum is closed from Schreier generators, and
conjugating it by t[x] gives the stabilizer of x.  By orbit-stabilizer, the
vertex images are an action of the group exactly when each
vertex orbit's stabilizer, so closed, has |G| / |orbit| elements; and a free
orbit (|G| points) and a fixed one (one point) take their stabilizers, the
trivial group and G, from orbit-stabilizer alone, with no closure.  The
elements carrying x to y form the coset t[y] * Stab(min) * t[x]^-1, and g * x
is the point whose coset is g * t[x] * Stab(min) (Seress, *Permutation Group
Algorithms*, 2003, ch. 4).
Each regularity condition holds along a whole orbit or nowhere on it, and
each quotient simplex is one orbit, so both are read off one key per orbit,
``GroupAction.orbit_keys``; the quotient is computed once per action.
Condition (2) fails exactly when two orbits share a key.
Condition (3) implies (1): a setwise stabilizer maps each vertex into its own
orbit, which under (3) meets the simplex in that vertex alone, so the vertex is
fixed; stabilizers are only built for orbits whose key repeats a vertex orbit.
``induced_action_to_doc`` writes the document of the induced action on the
subdivision from the action alone: its generator rows, its orbit keys and,
for an orbit whose key repeats a vertex orbit, its stabilizer, which the
orbit budget's count of the subdivision's orbits reads.
"""

from functools import cached_property
from itertools import repeat
from operator import itemgetter

from . import groups
from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    chain_counts,
    complex_to_doc,
    subdivision_to_doc,
)
from .errors import (
    FormatError,
    GroupTooLargeError,
    NotAnAutomorphismError,
    RegularityViolationError,
)
from .groups import enumerate_from_generators

POINTWISE_FIX = "pointwise-fix"
ORBIT_CLOSURE = "orbit-closure"
DISTINCT_VERTEX_ORBITS = "distinct-vertex-orbits"


class RegularityReport:
    def __init__(self, regular, condition=None, witness=None):
        self.regular = regular
        self.condition = condition
        self.witness = witness

    def to_doc(self):
        return {
            "regular": self.regular,
            "condition": self.condition,
            "witness": self.witness,
        }


def _check_orbit_budget(order, orbits):
    # each orbit holds a stabilizer of |G| / |orbit| elements and a coset map
    # of |G| entries once they are built
    if order * orbits > groups.MAX_TABLE_ENTRIES:
        raise GroupTooLargeError(
            f"stabilizers of {orbits} orbits under a group of order "
            f"{order} exceed the maximum of {groups.MAX_TABLE_ENTRIES} table entries"
        )


class GroupAction:
    """A finite group acting on a complex, given one vertex permutation per generator.

    Vertex v is simplex v, so the generators' simplex rows hold their vertex
    images too.  Everything else is derived from those rows: the orbits with a
    transversal, the stabilizer of each orbit's minimum, and per orbit a map
    from the cosets of that stabilizer to the orbit's points.  Images that are
    not an action of ``group`` raise ``NotAnAutomorphismError``.

    ``orbit_ids`` holds the orbit id per simplex; orbits are numbered by their
    minimal member.  Vertices come first in canonical order, so the vertex
    orbits are 0..k-1 and ``orbit_ids[v]`` is the class of vertex v in the
    quotient.
    """

    def __init__(self, group, complex_, generator_images):
        if len(generator_images) != len(group.generators):
            raise NotAnAutomorphismError("one vertex permutation required per generator")
        self.group = group
        self.complex = complex_
        self.generator_rows = [
            self._simplex_row(g, row) for g, row in zip(group.generators, generator_images)
        ]
        self.orbit_ids, self._transversal, self._orbits = self._walk_orbits()
        _check_orbit_budget(group.order, len(self._orbits))
        self._vertex_stabilizers = self._check_vertex_orbits()

    @classmethod
    def from_generator_perms(cls, generator_perms, complex_):
        """Close vertex permutations into a group acting on ``complex_``."""
        group = enumerate_from_generators(generator_perms, complex_.vertex_count)
        return cls(group, complex_, generator_perms)

    def _simplex_row(self, g, row):
        """Simplex images of element g, given its vertex images."""
        complex_ = self.complex
        if sorted(row) != list(range(complex_.vertex_count)):
            raise NotAnAutomorphismError(f"element {g} does not permute the vertices")
        table = complex_.image_ids(complex_, row)
        if None in table:
            simplex = complex_.simplices[table.index(None)]
            raise NotAnAutomorphismError(f"element {g} maps simplex {simplex} outside the complex")
        return table

    def _walk_orbits(self):
        """Breadth-first walk of every orbit along the generator rows.

        Returns the orbit id per simplex, a transversal element t[x] with
        t[x] * min = x (t[s*x] = s * t[x] along the walk), and the members of
        each orbit in walk order, its minimum first.
        """
        n = len(self.complex)
        ids = [-1] * n
        transversal = [0] * n
        orbits = []
        mult = self.group._mult
        steps = list(zip(self.group.generators, self.generator_rows))
        for start in range(n):
            if ids[start] >= 0:
                continue
            oid = len(orbits)
            ids[start] = oid
            members = [start]
            for x in members:  # grows while walked
                t_x = transversal[x]
                for s, row in steps:
                    y = row[x]
                    if ids[y] < 0:
                        ids[y] = oid
                        transversal[y] = mult[s][t_x]
                        members.append(y)
            orbits.append(members)
        return ids, transversal, orbits

    def _check_vertex_orbits(self):
        """Raise unless the vertex images are an action of the group; return
        the stabilizer elements of each vertex orbit's minimum, closed in full
        (None for a one-point orbit).

        The free group F on the generators acts on an orbit O by the images
        and maps onto G, and the Schreier generators close to the image H of
        Stab_F(min).  So |G| / |H| = [F : Stab_F(min) * ker] <= |O|, with
        equality exactly when the normal subgroup ker fixes all of O.  A
        one-point orbit passes: its Schreier generators are the generators.
        """
        order = self.group.order
        closed = []
        for members in self._orbits:
            if members[0] >= self.complex.vertex_count:
                break  # vertices come first, so their orbits do too
            elements = self._stabilizer_elements(members) if len(members) > 1 else None
            if elements is not None and len(elements) * len(members) != order:
                raise NotAnAutomorphismError(
                    "vertex tables are not compatible with the group multiplication"
                )
            closed.append(elements)
        return closed

    def _stabilizer_elements(self, members, size=None):
        """The subgroup generated by t[s*x]^-1 * s * t[x] over the orbit's points x
        and the generators s, closed until it holds ``size`` elements.

        By Schreier's lemma it is the stabilizer of the orbit's minimum, when
        the generator rows are an action of the group.
        """
        group = self.group
        mult, inverse, transversal = group._mult, group._inverse, self._transversal
        steps = list(zip(group.generators, self.generator_rows))
        elements, reached = [0], bytearray(group.order)
        reached[0] = 1
        for x in members:
            if len(elements) == size:
                break
            t_x = transversal[x]
            for s, row in steps:
                g = mult[inverse[transversal[row[x]]]][mult[s][t_x]]
                if not reached[g]:
                    groups.extend_subgroup(mult, elements, reached, g)
        return elements

    @cached_property
    def orbit_keys(self):
        """Per orbit, the sorted vertex orbits of its minimum's vertices.

        g carries each vertex into that vertex's own orbit, so every member of
        an orbit has its minimum's key.
        """
        minima = map(self.complex.simplices.__getitem__, map(itemgetter(0), self._orbits))
        return list(map(tuple, map(sorted, map(map, repeat(self.orbit_ids.__getitem__), minima))))

    @cached_property
    def _stabilizers(self):
        """Per orbit, the stabilizer of its minimum, of |G| / |orbit| elements.

        By orbit-stabilizer, an orbit of |G| points has the trivial stabilizer
        and a one-point orbit has G, so neither is closed.  A vertex orbit's
        was closed in full by the action check; any other is closed from
        Schreier generators until it holds |G| / |orbit| elements.
        """
        group, order = self.group, self.group.order
        trivial, full = group.subgroup([0]), group.full_subgroup()
        closed = self._vertex_stabilizers
        stabilizers = []
        for oid, members in enumerate(self._orbits):
            size = len(members)
            if size == order:
                stabilizers.append(trivial)
            elif size == 1:
                stabilizers.append(full)
            elif oid < len(closed):
                stabilizers.append(group.subgroup(closed[oid]))
            else:
                stabilizers.append(
                    group.subgroup(self._stabilizer_elements(members, order // size))
                )
        return stabilizers

    @cached_property
    def coset_points(self):
        """Per orbit, its points keyed by the minimal member of their coset.

        Point x of the orbit is t[x] * min, so its coset is t[x] * Stab(min),
        whose minimal member the stabilizer's ``coset_reps`` gives.
        """
        transversal = self._transversal
        return [
            {stabilizer.coset_reps[transversal[x]]: x for x in members}
            for stabilizer, members in zip(self._stabilizers, self._orbits)
        ]

    def act_on_simplex(self, g, sid):
        """g * sid: the point of the orbit whose coset is g * t[sid] * Stab(min)."""
        oid = self.orbit_ids[sid]
        reps = self._stabilizers[oid].coset_reps
        return self.coset_points[oid][reps[self.group._mult[g][self._transversal[sid]]]]

    def stab(self, sid):
        """Setwise stabilizer subgroup of a simplex: t[sid] * Stab(min) * t[sid]^-1."""
        stabilizer = self._stabilizers[self.orbit_ids[sid]]
        t = self._transversal[sid]
        if t == 0:
            return stabilizer
        mult = self.group._mult
        row_t, t_inv = mult[t], self.group._inverse[t]
        return self.group.subgroup([mult[row_t[h]][t_inv] for h in stabilizer.elements])

    def trans(self, sid, target):
        """Enumeration-minimal g with g*sid = target, or None.

        Those g form the coset t[target] * Stab(min) * t[sid]^-1.
        """
        if sid == target:
            return 0
        oid = self.orbit_ids[sid]
        if oid != self.orbit_ids[target]:
            return None
        mult, transversal = self.group._mult, self._transversal
        row_t, t_inv = mult[transversal[target]], self.group._inverse[transversal[sid]]
        return min(mult[row_t[h]][t_inv] for h in self._stabilizers[oid].elements)

    @cached_property
    def quotient(self):
        """(Y, p, lifts) of a regular action, computed once; see ``quotient``."""
        report = check_regularity(self)
        if not report.regular:
            raise RegularityViolationError(report)
        quotient_complex = SimplicialComplex(self.orbit_keys)
        classes = [quotient_complex.index[key] for key in self.orbit_keys]
        lifts = [0] * len(classes)
        for y, members in zip(classes, self._orbits):
            lifts[y] = members[0]
        return quotient_complex, [classes[oid] for oid in self.orbit_ids], lifts


def check_regularity(action):
    """Check the three regularity conditions, reporting the first violation.

    Scan order: pointwise fixing of setwise stabilizers, then orbit closure
    of recombined simplices, then distinctness of vertex orbits within each
    simplex; within each condition, orbits are visited by their minima, canonically.
    """
    complex_ = action.complex
    ids = action.orbit_ids
    minima = [members[0] for members in action._orbits]
    keys = action.orbit_keys
    repeats = [sid for sid, key in zip(minima, keys) if len(set(key)) < len(key)]

    # (3) implies (1): a setwise stabilizer maps each vertex of the simplex into
    # that vertex's own orbit, which under (3) meets the simplex in that vertex
    # alone.  So only an orbit repeating a vertex orbit can violate (1).
    for sid in repeats:
        simplex = complex_.simplices[sid]
        for g in action.stab(sid).elements:
            moved = next((v for v in simplex if action.act_on_simplex(g, v) != v), None)
            if moved is not None:
                return RegularityReport(
                    False,
                    POINTWISE_FIX,
                    {"simplex": sid, "element": g, "vertex": moved},
                )

    # Simplices sharing a key are mutually recombinable: matching the vertices
    # of one against the vertex orbits of the other pairs off equal classes.
    # So (2) fails exactly when two orbits share a key, and the first simplex
    # with a stray is the minimum of the first orbit whose key a later orbit
    # shares; its first stray is the minimum of the next orbit with that key.
    heads = {}
    strays = {}
    for sid, key in zip(minima, keys):
        head = heads.setdefault(key, sid)
        if head != sid:
            strays.setdefault(head, sid)
    if strays:
        head = min(strays)
        return RegularityReport(
            False,
            ORBIT_CLOSURE,
            {"simplex": head, "recombined": strays[head]},
        )

    if repeats:
        seen = {}
        for v in complex_.simplices[repeats[0]]:
            if ids[v] in seen:
                u = seen[ids[v]]
                return RegularityReport(
                    False,
                    DISTINCT_VERTEX_ORBITS,
                    {"simplex": repeats[0], "vertices": [u, v], "element": action.trans(u, v)},
                )
            seen[ids[v]] = v

    return RegularityReport(True)


def quotient(action):
    """Quotient complex, orbit map and lifts, for a regular action.

    Returns (Y, p, lifts) where p maps each simplex id of the acted-on complex
    to its orbit class id in Y, and lifts[y] is the minimal member of class y.
    Y holds one simplex per orbit, its key; under (2) no two orbits share one.
    Vertex classes are numbered by their minimal member; higher simplices
    follow canonical order of their class tuples.  Under (3) a facet's key is
    its simplex's key less one class: the keys are closed.  The action
    computes the result once and keeps it.
    """
    return action.quotient


def induced_action_on_subdivision(action):
    """Subdivide the action's complex and push the action through it."""
    # subdivision vertex ids are simplex ids of the action's complex
    return GroupAction(
        action.group, barycentric_subdivision(action.complex), action.generator_rows
    )


def subdivision_orbit_count(action):
    """The orbit count of ``induced_action_on_subdivision(action)``, subdividing nothing.

    The subdivision's orbits topped in an orbit O of the action are the orbits
    of S, the stabilizer of O's minimum sigma, on the chains of faces topped
    at sigma.  g fixes such a chain exactly when each face is a union of g's
    cycles on sigma's vertices, so by Burnside's lemma there are
    (1 / |S|) * sum over g in S of c_(r(g) - 1), with r(g) the number of
    cycles and c the chain counts.  If O's key repeats no vertex orbit, S
    fixes sigma pointwise (see the module docstring), so the term is
    c_(dim sigma) and no stabilizer is built.
    """
    tops = chain_counts(action.complex.dim)
    count = 0
    for oid, key in enumerate(action.orbit_keys):
        if len(set(key)) == len(key):
            count += tops[len(key) - 1]
            continue
        simplex = action.complex.simplices[action._orbits[oid][0]]
        stabilizer = action._stabilizers[oid].elements
        fixed = 0
        for g in stabilizer:
            image = {v: action.act_on_simplex(g, v) for v in simplex}
            cycles = 0
            for v in simplex:
                if v in image:
                    cycles += 1
                    while v in image:
                        v = image.pop(v)
            fixed += tops[cycles - 1]
        count += fixed // len(stabilizer)
    return count


def _generators_doc(rows, n):
    """The generators' images of n vertices by name; names are zero-padded to
    one width, so that sorted keys list the generators in index order."""
    width = len(str(len(rows) - 1))
    return {"generators": {f"g{i:0{width}}": row[:n] for i, row in enumerate(rows)}}


def action_to_doc(action):
    # vertex v is simplex v, so a generator row starts with its vertex images
    return {
        "group": _generators_doc(action.generator_rows, action.complex.vertex_count),
        "complex": complex_to_doc(action.complex),
    }


def induced_action_to_doc(action):
    """``action_to_doc(induced_action_on_subdivision(action))``, subdividing nothing.

    The subdivision's vertex v is the action's simplex v, so a generator's
    vertex images there are its simplex row here, and a simplicial
    automorphism of the complex induces one of its subdivision: nothing is
    left to check but the simplex cap and then the orbit budget, each raising
    as the induced action would.
    """
    complex_doc = subdivision_to_doc(action.complex)
    _check_orbit_budget(action.group.order, subdivision_orbit_count(action))
    return {
        "group": _generators_doc(action.generator_rows, len(action.complex)),
        "complex": complex_doc,
    }


def action_from_doc(doc, complex_):
    if not isinstance(doc, dict):
        raise FormatError("action must be an object", "$")
    group_doc = doc.get("group")
    if not isinstance(group_doc, dict) or not isinstance(group_doc.get("generators"), dict):
        raise FormatError(
            "group.generators must be an object of named permutations",
            "$.group.generators",
        )
    perms = []
    for name, perm in group_doc["generators"].items():
        if (
            not isinstance(perm, list)
            or len(perm) != complex_.vertex_count
            or not all(type(v) is int for v in perm)
            or sorted(perm) != list(range(complex_.vertex_count))
        ):
            raise FormatError(
                f"generator must be a permutation of 0..{complex_.vertex_count - 1}",
                f"$.group.generators.{name}",
            )
        perms.append(perm)
    try:
        return GroupAction.from_generator_perms(perms, complex_)
    except (GroupTooLargeError, NotAnAutomorphismError) as exc:
        raise FormatError(str(exc), "$.group.generators") from exc
