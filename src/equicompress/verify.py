"""Roundtrip verification and brute-force equivariant isomorphism search.

The primary verifier reads only the action and the reconstruction.  It builds
the canonical comparison map s(y, g) = g * lift(y) from the reconstruction
back to the original complex, with the lifts ``quotient`` returns, and checks
that it is a well-defined equivariant simplicial bijection preserving fibers.
The map is read in bulk from the action's per-orbit coset maps: g * lift(y)
is the point whose coset of the lift's stabilizer is g's.  Well-definedness is
checked on the stabilizer elements and equivariance on the generator rows,
which is exhaustive: g and minrep(S(y), g) differ by an element of S(y), and a
map between two G-actions that commutes with a generating set commutes with G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import quotient
from .complexes import complexes_equal
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


def verify_roundtrip(action, rc):
    """Verify that a reconstruction matches the original action.

    The reconstruction's action is read from its labels:
    h * (y, g) = (y, minrep(S(y), h * g)); labels that this does not carry
    onto labels fail "equivariant".  Raises InputMismatchError when the
    reconstruction is over another group or another quotient, and
    RegularityViolationError for an irregular action.
    """
    triple = rc.triple
    if triple.group is not action.group and triple.group != action.group:
        raise InputMismatchError("reconstruction and action use different groups")
    expected, orbit_map, lifts = quotient(action)
    if not complexes_equal(expected, triple.quotient):
        raise InputMismatchError("reconstruction's quotient is not the action's quotient")

    group = triple.group
    properties = {}

    # the lifts are orbit minima, so g * lift(y) is the point of the lift's
    # orbit whose coset of the lift's stabilizer holds g
    stabilizers = [action.stab(lift) for lift in lifts]
    reps = [stabilizer.coset_reps for stabilizer in stabilizers]
    points = [action.coset_points[action.orbit_ids[lift]] for lift in lifts]
    comparison = [points[y][reps[y][g]] for (y, g) in rc.labels]

    # subgroups are interned per group, so each distinct (triple, action)
    # pair is checked once, at the first class that has it
    counterexample = None
    checked = set()
    for y, stabilizer in enumerate(stabilizers):
        pair = (id(triple.stabilizers[y]), id(stabilizer))
        if pair in checked:
            continue
        checked.add(pair)
        s = next((s for s in triple.stabilizers[y].elements if s not in stabilizer), None)
        if s is not None:
            counterexample = {"class": y, "element": s}
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

    sid_of = {label: sid for sid, label in enumerate(rc.labels)}
    steps = list(zip(action.group.generators, action.generator_rows))
    counterexample = None
    for sid, (y, g) in enumerate(rc.labels):
        for h, row in steps:
            moved = sid_of.get((y, group.minrep(triple.stabilizers[y], group.prod(h, g))))
            if moved is None or comparison[moved] != row[comparison[sid]]:
                counterexample = {"simplex": sid, "element": h}
                break
        if counterexample:
            break
    properties["equivariant"] = (counterexample is None, counterexample)

    counterexample = None
    for sid in range(len(rc)):
        for fid in rc.complex.faces_codim1[sid]:
            if comparison[fid] not in action.complex.faces_codim1[comparison[sid]]:
                counterexample = {"simplex": sid, "face": fid}
                break
        if counterexample:
            break
    properties["simplicial"] = (counterexample is None, counterexample)

    counterexample = None
    for sid, (y, _) in enumerate(rc.labels):
        if orbit_map[comparison[sid]] != y:
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

    # orbits in breadth-first order along edges, so that each placed orbit
    # closes simplices with the orbits placed before it
    reps = []
    orbit_of_a = [-1] * a.vertex_count
    for start in range(a.vertex_count):
        queue = [start]
        for v in queue:  # grows while walked
            if orbit_of_a[v] >= 0:
                continue
            for g in range(group.order):
                orbit_of_a[action_a.act_on_simplex(g, v)] = len(reps)
            reps.append(v)
            queue.extend(u for e in a.cofaces_up[v] for u in a.simplices[e] if u != v)

    # simplices checkable once the orbits of their vertices are all assigned
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
    """Whether the recovered action's quotient is the stored quotient, exactly.

    Reconstruction numbers vertices fiber by fiber in class order, so the
    recovered action's classes carry the stored numbering and each simplex
    lies in the class of its label.
    """
    computed, orbit_map, _ = quotient(recovered_action(rc))
    return complexes_equal(computed, expected_quotient) and all(
        orbit_map[sid] == y for sid, (y, _) in enumerate(rc.labels)
    )
