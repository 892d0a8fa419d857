"""Roundtrip verification and brute-force equivariant isomorphism search.

The primary verifier builds the canonical comparison map s(y, g) = g * lift(y)
from a reconstruction back to the original complex and checks, exhaustively,
that it is a well-defined equivariant simplicial bijection preserving fibers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import quotient
from .errors import BruteForceBoundError, InputMismatchError
from .reconstruct import recovered_action

PROPERTIES = (
    "well-defined",
    "injective",
    "surjective",
    "equivariant",
    "simplicial",
    "fiber-preserving",
)


@dataclass
class EquivarianceReport:
    passed: bool
    properties: dict = field(default_factory=dict)  # name -> (ok, counterexample)

    def to_doc(self):
        return {
            "passed": self.passed,
            "properties": {
                name: {"ok": ok, "counterexample": ce}
                for name, (ok, ce) in self.properties.items()
            },
        }


def verify_roundtrip(action, certificate, rc):
    """Exhaustively verify that a reconstruction matches the original action."""
    triple = rc.triple
    if triple.group is not action.group and triple.group != action.group:
        raise InputMismatchError("reconstruction and action use different groups")
    if len(certificate.orbit_map) != len(action.complex):
        raise InputMismatchError("certificate does not match the action's complex")

    group = triple.group
    properties = {}

    comparison = [
        action.act_on_simplex(g, certificate.lifts[y]) for (y, g) in rc.labels
    ]

    counterexample = None
    for y, lift in enumerate(certificate.lifts):
        stabilizer = triple.stabilizers[y]
        for g in range(group.order):
            if action.act_on_simplex(g, lift) != action.act_on_simplex(
                group.minrep(stabilizer, g), lift
            ):
                counterexample = {"class": y, "element": g}
                break
        if counterexample:
            break
    properties["well-defined"] = (counterexample is None, counterexample)

    seen = {}
    counterexample = None
    for sid, image in enumerate(comparison):
        if image in seen:
            counterexample = {"simplices": [seen[image], sid], "image": image}
            break
        seen[image] = sid
    properties["injective"] = (counterexample is None, counterexample)

    missing = sorted(set(range(len(action.complex))) - set(comparison))
    properties["surjective"] = (
        not missing,
        {"uncovered": missing[:5]} if missing else None,
    )

    action_on_rc = recovered_action(rc)
    counterexample = None
    for sid in range(len(rc)):
        for h in range(group.order):
            moved = action_on_rc.act_on_simplex(h, sid)
            if comparison[moved] != action.act_on_simplex(h, comparison[sid]):
                counterexample = {"simplex": sid, "element": h}
                break
        if counterexample:
            break
    properties["equivariant"] = (counterexample is None, counterexample)

    counterexample = None
    for sid in range(len(rc)):
        for fid in rc.complex.faces_codim1(sid):
            if comparison[fid] not in action.complex.faces_codim1(comparison[sid]):
                counterexample = {"simplex": sid, "face": fid}
                break
        if counterexample:
            break
    properties["simplicial"] = (counterexample is None, counterexample)

    counterexample = None
    for sid, (y, _) in enumerate(rc.labels):
        if certificate.orbit_map[comparison[sid]] != y:
            counterexample = {"simplex": sid, "class": y}
            break
    properties["fiber-preserving"] = (counterexample is None, counterexample)

    return EquivarianceReport(all(ok for ok, _ in properties.values()), properties)


def find_equivariant_isomorphism(action_a, action_b, bound=300):
    """Backtracking search for a simplicial bijection commuting with the action.

    Vertex images are chosen one orbit at a time (the image of one orbit
    representative determines the whole orbit), with simplices checked as
    soon as all their vertices are assigned.  Returns a vertex map (list) or
    None.  Refuses inputs above the brute-force bound outright.
    """
    if action_a.group is not action_b.group and action_a.group != action_b.group:
        raise InputMismatchError("actions use different groups")
    if len(action_a.complex) > bound or len(action_b.complex) > bound:
        raise BruteForceBoundError(
            f"complexes with more than {bound} simplices are not searched"
        )
    a, b = action_a.complex, action_b.complex
    if a.vertex_count != b.vertex_count or a.counts_by_dim() != b.counts_by_dim():
        return None
    group = action_a.group

    reps = []
    assigned_orbit = [False] * a.vertex_count
    for v in range(a.vertex_count):
        if not assigned_orbit[v]:
            reps.append(v)
            for g in range(group.order):
                assigned_orbit[action_a.act_on_simplex(g, v)] = True

    # simplices checkable once the orbits of their vertices are all assigned
    orbit_of_a = {}
    for i, v in enumerate(reps):
        for g in range(group.order):
            orbit_of_a[action_a.act_on_simplex(g, v)] = i
    checkpoints = [[] for _ in reps]
    for simplex in a.simplices:
        if len(simplex) > 1:
            checkpoints[max(orbit_of_a[v] for v in simplex)].append(simplex)

    b_simplices = set(b.simplices)
    vmap = [-1] * a.vertex_count
    used = [False] * b.vertex_count

    def vertex_stab(action, v):
        return frozenset(
            g for g in range(group.order) if action.act_on_simplex(g, v) == v
        )

    stab_a = [vertex_stab(action_a, v) for v in reps]

    def place(i):
        if i == len(reps):
            return True
        v = reps[i]
        for w in range(b.vertex_count):
            if used[w] or vertex_stab(action_b, w) != stab_a[i]:
                continue
            images = {}
            ok = True
            for g in range(group.order):
                source = action_a.act_on_simplex(g, v)
                target = action_b.act_on_simplex(g, w)
                if source in images and images[source] != target:
                    ok = False
                    break
                images[source] = target
            if not ok or any(used[t] for t in set(images.values())):
                continue
            for source, target in images.items():
                vmap[source] = target
                used[target] = True
            if all(
                tuple(sorted(vmap[v2] for v2 in s)) in b_simplices
                for s in checkpoints[i]
            ) and place(i + 1):
                return True
            for source, target in images.items():
                vmap[source] = -1
                used[target] = False
        return False

    if not place(0):
        return None
    return list(vmap)


def verify_quotient_identity(rc, expected_quotient):
    """Whether the recovered action's quotient is the stored quotient.

    The recovered action is quotiented from scratch; its orbit classes are
    relabeled through the label projection (y, g) -> y before comparison.
    """
    action = recovered_action(rc)
    computed, orbit_map = quotient(action)
    if len(computed) != len(expected_quotient):
        return False
    # class of the computed quotient -> the label class of its fiber
    relabel = {}
    for sid, (y, _) in enumerate(rc.labels):
        c = orbit_map[sid]
        if relabel.setdefault(c, y) != y:
            return False
    if sorted(relabel) != list(range(len(computed))) or sorted(
        relabel.values()
    ) != list(range(len(expected_quotient))):
        return False
    # vertex class -> vertex of the stored quotient, through singleton labels
    vertex_relabel = {}
    for cid, y in relabel.items():
        simplex = computed.simplices[cid]
        if len(simplex) == 1:
            target = expected_quotient.simplices[y]
            if len(target) != 1:
                return False
            vertex_relabel[simplex[0]] = target[0]
    mapped = {
        tuple(sorted(vertex_relabel[v] for v in simplex))
        for simplex in computed.simplices
    }
    return mapped == set(expected_quotient.simplices)
