"""Compression: regular action in, (quotient, stabilizers, transfers) out.

Orbit classes are processed in canonical order: each class records the
stabilizer of its lift and one transfer per codimension-1 face of the lift.
The lifts are the ones ``quotient`` returns, the minimal member of each class,
and only their facet lists are built.
"""

from .actions import quotient
from .cog import CompressedTriple


def compress(action):
    """Run the compression algorithm and return the CompressedTriple.

    Raises RegularityViolationError (carrying the report) for irregular actions.
    """
    quotient_complex, orbit_map, lifts = quotient(action)  # raises on irregular actions

    stabilizers = []
    transfers = {}
    # the lifts come in class order, so a dimension at a time
    for y, (lift, facets) in enumerate(zip(lifts, action.complex.facets_of(lifts))):
        stabilizers.append(action.stab(lift))
        for z in facets:
            child = orbit_map[z]
            transfers[(y, child)] = action.trans(z, lifts[child])

    return CompressedTriple(action.group, quotient_complex, stabilizers, transfers)


def compression_ratio(action, triple):
    """Simplex count of the input over simplex count of the quotient.

    The empty complex, like the trivial action, compresses at ratio 1.0.
    """
    if not len(triple.quotient):
        return 1.0
    return len(action.complex) / len(triple.quotient)
