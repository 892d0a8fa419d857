"""Compression: regular action in, (quotient, stabilizers, transfers) out.

Orbit classes are processed in canonical order: each class records the
stabilizer of its lift and one transfer per codimension-1 face of the lift.
"""

from __future__ import annotations

from .actions import quotient
from .cog import CompressedTriple, CompressionCertificate


def compress(action):
    """Run the compression algorithm.

    Each class is lifted to its minimal member, the member by which
    ``GroupAction.orbit_ids`` numbers the orbit.  Returns
    (CompressedTriple, CompressionCertificate).  Raises
    RegularityViolationError (carrying the report) for irregular actions.
    """
    quotient_complex, orbit_map = quotient(action)  # raises on irregular actions
    lifts = [None] * len(quotient_complex)
    for x, y in enumerate(orbit_map):
        if lifts[y] is None:
            lifts[y] = x

    stabilizers = []
    transfers = {}
    for y, lift in enumerate(lifts):
        stabilizers.append(action.stab(lift))
        for z in action.complex.faces_codim1[lift]:
            child = orbit_map[z]
            carrier = action.trans(z, lifts[child])
            if carrier is None:
                raise AssertionError(
                    "no transporter between orbit members of a regular action"
                )
            transfers[(y, child)] = carrier

    triple = CompressedTriple(action.group, quotient_complex, stabilizers, transfers)
    certificate = CompressionCertificate(orbit_map, lifts)
    return triple, certificate


def compression_ratio(action, triple):
    """Simplex count of the input over simplex count of the quotient."""
    return len(action.complex) / len(triple.quotient)
