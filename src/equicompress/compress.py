"""Compression: regular action in, (quotient, stabilizers, transfers) out.

Orbit classes are processed in canonical order: each class records the
stabilizer of its lift and one transfer per codimension-1 face of the lift.
"""

from __future__ import annotations

from collections import deque

from .actions import quotient
from .cog import CompressedTriple, CompressionCertificate

LIFT_POLICIES = ("lex-min", "lex-max", "equivariant-bfs")


def compress(action, lift_policy="lex-min"):
    """Run the compression algorithm.

    Returns (CompressedTriple, CompressionCertificate).  Raises
    RegularityViolationError (carrying the report) for irregular actions.
    """
    if lift_policy not in LIFT_POLICIES:
        raise ValueError(f"unknown lift policy {lift_policy!r}")
    quotient_complex, orbit_map = quotient(action)  # raises on irregular actions
    fibers = [[] for _ in range(len(quotient_complex))]
    for x, y in enumerate(orbit_map):
        fibers[y].append(x)  # ascending, i.e. lex order within a dimension

    if lift_policy == "lex-min":
        lifts = [fiber[0] for fiber in fibers]
    elif lift_policy == "lex-max":
        lifts = [fiber[-1] for fiber in fibers]
    else:
        lifts = _equivariant_bfs_lifts(action, orbit_map, fibers)

    stabilizers = []
    transfers = {}
    for y, lift in enumerate(lifts):
        stabilizers.append(action.stab(lift))
        for z in action.complex.faces_codim1(lift):
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


def _equivariant_bfs_lifts(action, orbit_map, fibers):
    """Seed lifts by breadth-first search, claiming whole orbits at a time.

    Growing the lift set along face/coface adjacency makes more transfers
    equal the identity; correctness does not depend on the choice.
    """
    lifts = [None] * len(fibers)
    claimed = 0
    queue = deque()
    cursor = 0
    complex_ = action.complex
    while claimed < len(fibers):
        if not queue:
            while lifts[orbit_map[cursor]] is not None:
                cursor += 1
            queue.append(cursor)
        x = queue.popleft()
        y = orbit_map[x]
        if lifts[y] is not None:
            continue
        lifts[y] = x
        claimed += 1
        for neighbor in complex_.faces_down[x] + complex_.cofaces_up[x]:
            if lifts[orbit_map[neighbor]] is None:
                queue.append(neighbor)
    return lifts


def compression_ratio(action, triple):
    """Simplex count of the input over simplex count of the quotient."""
    return len(action.complex) / len(triple.quotient)
