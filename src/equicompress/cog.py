"""The compressed data model: quotient complex, stabilizers, transfers.

A triple is algebraically valid when conjugation by each transfer carries the
parent stabilizer into the child stabilizer, and any two descending
codimension-1 transfer paths between the same endpoints agree up to the
bottom stabilizer (the executable shadow of the cocycle condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import complex_from_doc, complex_to_doc
from .errors import FormatError
from .groups import Subgroup, group_from_doc, group_to_doc


@dataclass
class CompressedTriple:
    group: object
    quotient: object
    stabilizers: list  # Subgroup per quotient simplex id
    transfers: dict  # (parent id, child id) -> element index

    def transfer(self, parent, child):
        return self.transfers[(parent, child)]


@dataclass
class CompressionCertificate:
    orbit_map: list  # source simplex id -> quotient simplex id
    lifts: list  # quotient simplex id -> source simplex id


@dataclass
class ValidationReport:
    valid: bool
    violations: list = field(default_factory=list)

    def to_doc(self):
        return {"valid": self.valid, "violations": self.violations}


def validate_triple(triple):
    """Check domain totality, conjugation embeddings and path independence."""
    group, quotient = triple.group, triple.quotient
    violations = []

    if len(triple.stabilizers) != len(quotient):
        violations.append(
            f"stabilizer map covers {len(triple.stabilizers)} of {len(quotient)} simplices"
        )
    relations = {
        (parent, child)
        for parent in range(len(quotient))
        for child in quotient.faces_codim1(parent)
    }
    missing = sorted(relations - set(triple.transfers))
    extra = sorted(set(triple.transfers) - relations)
    for parent, child in missing:
        violations.append(f"transfer missing for relation {parent} >= {child}")
    for parent, child in extra:
        violations.append(f"transfer keyed by non-face pair ({parent}, {child})")
    if violations:
        return ValidationReport(False, violations)

    for (parent, child), g in sorted(triple.transfers.items()):
        child_stab = triple.stabilizers[child]
        g_inv = group.inv(g)
        for a in triple.stabilizers[parent].elements:
            conjugate = group.prod(group.prod(g, a), g_inv)
            if conjugate not in child_stab:
                violations.append(
                    f"conjugation by transfer of {parent} >= {child} maps element {a} "
                    f"to {conjugate}, outside the child stabilizer"
                )
                break

    # Path independence over every pair of descending codim-1 paths of
    # length two sharing both endpoints.
    for top in range(len(quotient)):
        paths = {}
        for mid in quotient.faces_codim1(top):
            for bottom in quotient.faces_codim1(mid):
                product = group.prod(triple.transfer(mid, bottom), triple.transfer(top, mid))
                paths.setdefault(bottom, []).append((mid, product))
        for bottom, entries in sorted(paths.items()):
            _, reference = entries[0]
            for mid, product in entries[1:]:
                delta = group.prod(reference, group.inv(product))
                if delta not in triple.stabilizers[bottom]:
                    violations.append(
                        f"paths {top} >= {entries[0][0]} >= {bottom} and "
                        f"{top} >= {mid} >= {bottom} disagree by {delta}, "
                        f"outside the bottom stabilizer"
                    )

    return ValidationReport(not violations, violations)


def validate_against_action(triple, certificate, action):
    """Check that stabilizers and transfers really describe the action."""
    violations = []
    quotient = triple.quotient
    if triple.group is not action.group and triple.group != action.group:
        violations.append("triple and action use different groups")
        return ValidationReport(False, violations)
    if len(certificate.orbit_map) != len(action.complex) or len(certificate.lifts) != len(quotient):
        violations.append("certificate does not match the complexes")
        return ValidationReport(False, violations)

    for y, lift in enumerate(certificate.lifts):
        if certificate.orbit_map[lift] != y:
            violations.append(f"lift of class {y} projects to {certificate.orbit_map[lift]}")
        if action.stab(lift) != triple.stabilizers[y]:
            violations.append(f"stabilizer of class {y} differs from the lift's stabilizer")

    for (parent, child), g in sorted(triple.transfers.items()):
        lift = certificate.lifts[parent]
        matching = [
            z for z in action.complex.faces_codim1(lift) if certificate.orbit_map[z] == child
        ]
        if len(matching) != 1:
            violations.append(
                f"lift of class {parent} has {len(matching)} faces over class {child}"
            )
            continue
        if action.act_on_simplex(g, matching[0]) != certificate.lifts[child]:
            violations.append(
                f"transfer of {parent} >= {child} does not carry the matching face "
                f"onto the child lift"
            )

    return ValidationReport(not violations, violations)


def triple_to_doc(triple):
    return {
        "group": group_to_doc(triple.group),
        "quotient": complex_to_doc(triple.quotient),
        "stabilizers": [list(s.elements) for s in triple.stabilizers],
        "transfers": [
            [parent, child, g] for (parent, child), g in sorted(triple.transfers.items())
        ],
    }


def triple_from_doc(doc, location="$"):
    """Parse a triple document, checking structure but not algebraic laws.

    Keys other than the four of ``triple_to_doc`` are ignored.
    """
    if not isinstance(doc, dict):
        raise FormatError("triple must be an object", location)
    group = group_from_doc(doc.get("group"), f"{location}.group")
    quotient = complex_from_doc(doc.get("quotient"), f"{location}.quotient")

    stabilizers_doc = doc.get("stabilizers")
    if not isinstance(stabilizers_doc, list) or len(stabilizers_doc) != len(quotient):
        raise FormatError(
            f"stabilizers must list one subgroup per quotient simplex "
            f"({len(quotient)} expected)",
            f"{location}.stabilizers",
        )
    stabilizers = []
    for i, members in enumerate(stabilizers_doc):
        where = f"{location}.stabilizers[{i}]"
        if not isinstance(members, list) or not all(
            type(g) is int and 0 <= g < group.order for g in members
        ):
            raise FormatError("subgroup must be a list of element indices", where)
        try:
            stabilizers.append(Subgroup(group, members))
        except ValueError as exc:
            raise FormatError(str(exc), where) from exc

    transfers_doc = doc.get("transfers")
    if not isinstance(transfers_doc, list):
        raise FormatError("transfers must be a list", f"{location}.transfers")
    transfers = {}
    for i, entry in enumerate(transfers_doc):
        where = f"{location}.transfers[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3 and all(type(v) is int for v in entry)):
            raise FormatError("transfer entry must be [parent, child, element]", where)
        parent, child, g = entry
        if not (0 <= parent < len(quotient) and child in quotient.faces_codim1(parent)):
            raise FormatError(f"({parent}, {child}) is not a codimension-1 face pair", where)
        if not 0 <= g < group.order:
            raise FormatError(f"element index {g} out of range", where)
        if (parent, child) in transfers:
            raise FormatError(f"duplicate transfer for ({parent}, {child})", where)
        transfers[(parent, child)] = g

    return CompressedTriple(group, quotient, stabilizers, transfers)
