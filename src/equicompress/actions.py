"""Group actions on simplicial complexes, regularity checking, quotients.

An action is regular when (1) every setwise simplex stabilizer fixes the
simplex's vertices pointwise, (2) any simplex whose vertices can be matched
orbit-by-orbit to another simplex's vertices already lies in that simplex's
orbit, and (3) the vertices of each simplex occupy pairwise distinct vertex
orbits.  Conditions (1) and (2) are the classical ones; (3) is the extra
requirement that makes the quotient a simplicial complex (without it a free
rotation of a polygon boundary would collapse an edge onto a single vertex).

An action keeps one simplex-image row per group element: the generators' rows
come from their vertex permutations, the rest from ``FiniteGroup.compose_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import build_complex, complex_to_doc
from .errors import (
    FormatError,
    GroupTooLargeError,
    InputMismatchError,
    NotAnAutomorphismError,
    RegularityViolationError,
)
from .groups import Subgroup, enumerate_from_generators

POINTWISE_FIX = "pointwise-fix"
ORBIT_CLOSURE = "orbit-closure"
DISTINCT_VERTEX_ORBITS = "distinct-vertex-orbits"


@dataclass
class RegularityReport:
    regular: bool
    condition: str | None = None
    witness: dict | None = None

    def to_doc(self):
        return {
            "regular": self.regular,
            "condition": self.condition,
            "witness": self.witness,
        }


class GroupAction:
    """A finite group acting on a complex, given one vertex permutation per generator.

    Vertex v is simplex v, so the simplex-image rows hold the vertex images too.
    """

    def __init__(self, group, complex_, generator_images):
        if len(generator_images) != len(group.generators):
            raise NotAnAutomorphismError("one vertex permutation required per generator")
        self.group = group
        self.complex = complex_
        self.generator_images = [tuple(row) for row in generator_images]
        self.op_counts = None
        self._simplex_images = group.compose_rows(
            [self._simplex_row(g, row) for g, row in zip(group.generators, self.generator_images)],
            len(complex_),
        )
        self._orbit_cache = {}
        self._stab_cache = {}

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
        table = []
        for simplex in complex_.simplices:
            sid = complex_.index.get(tuple(sorted(row[v] for v in simplex)))
            if sid is None:
                raise NotAnAutomorphismError(
                    f"element {g} maps simplex {simplex} outside the complex"
                )
            table.append(sid)
        return table

    def act_on_vertex(self, g, v):
        return self._simplex_images[g][v]

    def act_on_simplex(self, g, sid):
        return self._simplex_images[g][sid]

    def orb(self, sid):
        """Sorted duplicate-free orbit of a simplex."""
        if self.op_counts is not None:
            self.op_counts["orb"] += 1
        cached = self._orbit_cache.get(sid)
        if cached is None:
            cached = sorted({table[sid] for table in self._simplex_images})
            for member in cached:
                self._orbit_cache[member] = cached
        return cached

    def stab(self, sid):
        """Setwise stabilizer subgroup of a simplex."""
        if self.op_counts is not None:
            self.op_counts["stab"] += 1
        cached = self._stab_cache.get(sid)
        if cached is None:
            members = [g for g in range(self.group.order) if self._simplex_images[g][sid] == sid]
            cached = Subgroup(self.group, members)
            self._stab_cache[sid] = cached
        return cached

    def trans(self, sid, target):
        """Enumeration-minimal g with g*sid = target, or None."""
        if self.op_counts is not None:
            self.op_counts["trans"] += 1
        if sid == target:
            return 0
        for g in range(self.group.order):
            if self._simplex_images[g][sid] == target:
                return g
        return None

    def vertex_orbit_classes(self):
        """Orbit class per vertex; classes numbered by their minimal member."""
        classes = [-1] * self.complex.vertex_count
        next_class = 0
        for v in range(self.complex.vertex_count):
            if classes[v] < 0:
                for row in self._simplex_images:
                    classes[row[v]] = next_class
                next_class += 1
        return classes


def check_regularity(action):
    """Check the three regularity conditions, reporting the first violation.

    Scan order: pointwise fixing of setwise stabilizers, then orbit closure
    of recombined simplices, then distinctness of vertex orbits within each
    simplex; within each condition, simplices are visited canonically.
    """
    complex_ = action.complex
    vclass = action.vertex_orbit_classes()

    for sid, simplex in enumerate(complex_.simplices):
        if len(simplex) == 1:
            continue
        for g in action.stab(sid).elements:
            moved = next((v for v in simplex if action.act_on_vertex(g, v) != v), None)
            if moved is not None:
                return RegularityReport(
                    False,
                    POINTWISE_FIX,
                    {"simplex": sid, "element": g, "vertex": moved},
                )

    # Simplices sharing a vertex-orbit multiset are mutually recombinable:
    # matching vertices of one against the vertex orbits of the other is a
    # matter of pairing off equal classes.
    buckets = {}
    for sid, simplex in enumerate(complex_.simplices):
        key = tuple(sorted(vclass[v] for v in simplex))
        buckets.setdefault(key, []).append(sid)
    for sid, simplex in enumerate(complex_.simplices):
        key = tuple(sorted(vclass[v] for v in simplex))
        orbit = set(action.orb(sid))
        stray = next((other for other in buckets[key] if other not in orbit), None)
        if stray is not None:
            return RegularityReport(
                False,
                ORBIT_CLOSURE,
                {"simplex": sid, "recombined": stray},
            )

    for sid, simplex in enumerate(complex_.simplices):
        seen = {}
        for v in simplex:
            if vclass[v] in seen:
                u = seen[vclass[v]]
                carrier = next(
                    g for g in range(action.group.order) if action.act_on_vertex(g, u) == v
                )
                return RegularityReport(
                    False,
                    DISTINCT_VERTEX_ORBITS,
                    {"simplex": sid, "vertices": [u, v], "element": carrier},
                )
            seen[vclass[v]] = v

    return RegularityReport(True)


def quotient(action):
    """Quotient complex plus the orbit map, for a regular action.

    Returns (Y, p) where p maps each simplex id of the acted-on complex to
    its orbit class id in Y.  Vertex classes are numbered by their minimal
    member; higher simplices follow canonical order of their class tuples.
    """
    report = check_regularity(action)
    if not report.regular:
        raise RegularityViolationError(report)
    complex_ = action.complex
    vclass = action.vertex_orbit_classes()
    n_classes = max(vclass) + 1 if vclass else 0
    images = [tuple(sorted(vclass[v] for v in s)) for s in complex_.simplices]
    quotient_complex = build_complex(set(images), vertex_count=n_classes)
    p = [quotient_complex.index[img] for img in images]
    return quotient_complex, p


def induced_action_on_subdivision(action, subdivision):
    """Push an action through a barycentric subdivision of its complex."""
    if subdivision.source is not action.complex:
        raise InputMismatchError("subdivision does not source the action's complex")
    # subdivision vertex ids are source simplex ids
    images = [action._simplex_images[g] for g in action.group.generators]
    return GroupAction(action.group, subdivision.target, images)


def action_to_doc(action):
    return {
        "group": {
            "generators": {f"g{i}": list(row) for i, row in enumerate(action.generator_images)}
        },
        "complex": complex_to_doc(action.complex),
    }


def action_from_doc(doc, complex_, location="$"):
    if not isinstance(doc, dict):
        raise FormatError("action must be an object", location)
    group_doc = doc.get("group")
    if not isinstance(group_doc, dict) or not isinstance(group_doc.get("generators"), dict):
        raise FormatError(
            "group.generators must be an object of named permutations",
            f"{location}.group.generators",
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
                f"{location}.group.generators.{name}",
            )
        perms.append(perm)
    try:
        return GroupAction.from_generator_perms(perms, complex_)
    except (GroupTooLargeError, NotAnAutomorphismError) as exc:
        raise FormatError(str(exc), f"{location}.group.generators") from exc
