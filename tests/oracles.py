"""Brute-force oracles that cross-check the library, kept beside the tests.

No command runs these; the tests run them against the library's fast paths,
with bounds on the inputs they search:

- ``validate_against_action`` recomputes the quotient, stabilizers and
  transfers from the action and compares them with a triple;
- ``check_partial_order`` recomputes the face relation of a reconstruction
  over every comparable label pair and checks it is the containment order;
- ``find_equivariant_isomorphism`` searches for a simplicial bijection that
  commutes with two actions;
- ``verify_quotient_identity`` checks that the action recovered from a
  reconstruction has the stored quotient, class by class;
- ``check_development`` checks that a reconstructed triple is the complex of
  groups of its own development.
"""

from equicompress.actions import quotient
from equicompress.cog import ValidationReport
from equicompress.complexes import complexes_equal
from equicompress.compress import compress
from equicompress.errors import EquicompressError, InputMismatchError
from equicompress.reconstruct import recovered_action


class BruteForceBoundError(EquicompressError):
    """An exhaustive search was refused because the input exceeds the bound."""


class ReconstructionIntegrityError(EquicompressError):
    """A face test of ``check_partial_order`` depends on the coset representative."""


def validate_against_action(triple, action):
    """Check that stabilizers and transfers really describe the action.

    The quotient, orbit map and lifts are recomputed from the action; a triple
    over any other quotient is reported as one violation.  Raises
    RegularityViolationError for an irregular action.
    """
    if triple.group is not action.group and triple.group != action.group:
        return ValidationReport(False, ["triple and action use different groups"])
    quotient_complex, orbit_map, lifts = quotient(action)
    if not complexes_equal(quotient_complex, triple.quotient):
        return ValidationReport(False, ["triple's quotient is not the action's quotient"])

    violations = []
    for y, lift in enumerate(lifts):
        if action.stab(lift).elements != triple.stabilizers[y].elements:
            violations.append(f"stabilizer of class {y} differs from the lift's stabilizer")

    for (parent, child), g in sorted(triple.transfers.items()):
        matching = [z for z in action.complex.faces_codim1[lifts[parent]] if orbit_map[z] == child]
        if len(matching) != 1:
            violations.append(
                f"lift of class {parent} has {len(matching)} faces over class {child}"
            )
            continue
        if action.act_on_simplex(g, matching[0]) != lifts[child]:
            violations.append(
                f"transfer of {parent} >= {child} does not carry the matching face "
                f"onto the child lift"
            )

    return ValidationReport(not violations, violations)


def check_partial_order(rc):
    """Brute-force verification that the face relation is a partial order.

    Recomputes the relation for every comparable label pair (any codimension,
    transfers composed along a canonical descending path), checks reflexivity,
    antisymmetry, transitivity and independence of the coset representative,
    and confirms it coincides with the containment order of the complex.
    Raises BruteForceBoundError past 10^4 comparable label pairs.
    """
    triple = rc.triple
    group, quotient, transfers = triple.group, triple.quotient, triple.transfers

    descendants = [None] * len(quotient)

    def descend(y):
        if descendants[y] is None:
            out = {y}
            for child in quotient.faces_codim1[y]:
                out.update(descend(child))
            descendants[y] = out
        return descendants[y]

    path_transfer = {}

    def transfer_along(y, target):
        if y == target:
            return 0
        key = (y, target)
        if key not in path_transfer:
            child = next(c for c in quotient.faces_codim1[y] if target in descend(c))
            path_transfer[key] = group.prod(transfer_along(child, target), transfers[y, child])
        return path_transfer[key]

    comparable = [
        (a, b)
        for a, (ya, _) in enumerate(rc.labels)
        for b, (yb, _) in enumerate(rc.labels)
        if yb in descend(ya)
    ]
    if len(comparable) > 10**4:
        raise BruteForceBoundError(
            f"{len(comparable)} candidate relations exceed the bound 10000"
        )

    def related(a, b):
        ya, ga = rc.labels[a]
        yb, gb = rc.labels[b]
        if yb not in descend(ya):
            return False
        stab_b = triple.stabilizers[yb]
        phi = transfer_along(ya, yb)
        verdicts = set()
        for s in triple.stabilizers[ya].elements:  # representative independence
            shifted = group.prod(ga, s)
            pulled = group.prod(shifted, group.inv(phi))
            verdicts.add(group.minrep(stab_b, pulled) == gb)
        if len(verdicts) != 1:
            raise ReconstructionIntegrityError(
                f"face test for {rc.labels[a]} over {rc.labels[b]} depends on the "
                f"coset representative"
            )
        return verdicts.pop()

    relation = {(a, b) for a, b in comparable if related(a, b)}

    for a in range(len(rc.labels)):
        if (a, a) not in relation:
            return False
    for a, b in relation:
        if a != b and (b, a) in relation:
            return False
    by_upper = {}
    for a, b in relation:
        by_upper.setdefault(a, set()).add(b)
    for a, b in relation:
        for c in by_upper.get(b, ()):
            if (a, c) not in relation:
                return False

    containment = {
        (a, b)
        for a in range(len(rc.labels))
        for b in range(len(rc.labels))
        if set(rc.complex.simplices[b]) <= set(rc.complex.simplices[a])
    }
    return relation == containment


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
    neighbours = [[] for _ in range(a.vertex_count)]  # in canonical edge order
    for u, w in (s for s in a.simplices if len(s) == 2):
        neighbours[u].append(w)
        neighbours[w].append(u)
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
            queue.extend(neighbours[v])

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


def check_development(rc):
    """Whether a reconstructed triple is the complex of groups of its development.

    T' = ``compress(recovered_action(rc))``, and the lift of class y there is
    a label (y, h_y).  T' must have T's quotient with T's class numbering,
    S'(y) = h_y S(y) h_y^-1, and h_c^-1 T'(y>=c) h_y in S(c) T(y>=c) for every
    relation y >= c (Bridson-Haefliger III.C).  On a compress output every
    h_y is the identity and T' = T.
    """
    triple = rc.triple
    group, stabilizers = triple.group, triple.stabilizers
    action = recovered_action(rc)
    developed = compress(action)
    if not complexes_equal(developed.quotient, triple.quotient):
        return False
    _, _, lifts = quotient(action)
    if any(rc.labels[lift][0] != y for y, lift in enumerate(lifts)):
        return False
    h = [rc.labels[lift][1] for lift in lifts]
    for y, s_y in enumerate(stabilizers):
        conjugate = {group.prod(group.prod(h[y], s), group.inv(h[y])) for s in s_y.elements}
        if developed.stabilizers[y].elements != sorted(conjugate):
            return False
    for (y, c), t in developed.transfers.items():
        shift = group.prod(group.prod(group.inv(h[c]), t), h[y])
        if group.prod(shift, group.inv(triple.transfers[y, c])) not in stabilizers[c]:
            return False
    return True
