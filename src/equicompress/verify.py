"""Roundtrip verification of a reconstruction against the original action.

The verifier reads only the action and the reconstruction.  It builds
the canonical comparison map s(y, g) = g * lift(y) from the reconstruction
back to the original complex, with the lifts ``quotient`` returns, and checks
that it is a well-defined equivariant simplicial bijection preserving fibers.
The map is read in bulk from the action's per-orbit coset maps: g * lift(y)
is the point whose coset of the lift's stabilizer is g's.  Well-definedness is
checked on the stabilizer elements and equivariance on the generator rows,
which is exhaustive: g and minrep(S(y), g) differ by an element of S(y), and a
map between two G-actions that commutes with a generating set commutes with G.
Each property has one pass, which also names its counterexample.  The
brute-force cross-checks of this verdict (an equivariant isomorphism search,
and the quotient of the recovered action) are test oracles, in
``tests/oracles.py``.
"""

from itertools import repeat
from operator import itemgetter, ne

from .actions import quotient
from .complexes import complexes_equal
from .errors import InputMismatchError

PROPERTIES = (
    "well-defined",
    "injective",
    "surjective",
    "equivariant",
    "simplicial",
    "fiber-preserving",
)


class EquivarianceReport:
    def __init__(self, passed, properties):
        self.passed = passed
        self.properties = properties  # name -> (ok, counterexample)

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

    # one pass per generator h: the image under h of each label's point must
    # be the point of the label h moves it to.  A failing pass yields its first
    # mismatching label; the counterexample is the least of these, at the
    # earliest generator that fails there.
    image_of = dict(zip(rc.labels, comparison))
    classes = list(map(itemgetter(0), rc.labels))
    elements = list(map(itemgetter(1), rc.labels))
    label_stabilizers = list(map(triple.stabilizers.__getitem__, classes))
    failures = []  # (first mismatching label, generator) per failing pass
    for h, row in zip(action.group.generators, action.generator_rows):
        cosets = map(group.minrep, label_stabilizers, map(group.prod, repeat(h), elements))
        moved = list(map(image_of.get, zip(classes, cosets)))
        images = list(map(row.__getitem__, comparison))
        if moved != images:
            failures.append((list(map(ne, moved, images)).index(True), h))
    counterexample = None
    if failures:
        sid, h = min(failures, key=itemgetter(0))
        counterexample = {"simplex": sid, "element": h}
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
