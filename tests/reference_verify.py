"""Test reference: ``verify_roundtrip`` as it was with label-major loops for
equivariance and the face check.

Each label is moved by each generator in turn, and each facet of each
simplex is looked up among the facets of its image, so the first
counterexample is the first one these loops meet.  The code is kept as it
was, with its name prefixed, so that the verifier that checks in passes can
be compared with it report by report, counterexamples included.
"""

from equicompress.actions import quotient
from equicompress.complexes import complexes_equal
from equicompress.errors import InputMismatchError
from equicompress.verify import EquivarianceReport


def reference_verify_roundtrip(action, rc):
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
