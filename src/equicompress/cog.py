"""The compressed data model: quotient complex, stabilizers, transfers.

A triple is algebraically valid when conjugation by each transfer carries the
parent stabilizer into the child stabilizer, each stabilizer is all of what
the transfers carry into its facets' stabilizers (the local-group law of a
complex of groups that comes from an action), and any two descending
codimension-1 transfer paths between the same endpoints agree up to the
bottom stabilizer (the executable shadow of the cocycle condition).  A valid
triple always reconstructs.
``validate_triple`` reads the triple alone; the test oracle
``validate_against_action`` in ``tests/oracles.py`` checks a triple against the
action it came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import complex_from_doc, complex_to_doc
from .errors import FormatError
from .groups import group_from_doc, group_to_doc


@dataclass
class CompressedTriple:
    group: object
    quotient: object
    stabilizers: list  # Subgroup per quotient simplex id
    transfers: dict  # (parent id, child id) -> element index


@dataclass
class ValidationReport:
    valid: bool
    violations: list = field(default_factory=list)

    def to_doc(self):
        return {"valid": self.valid, "violations": self.violations}


def validate_triple(triple):
    """Check domain totality, conjugation embeddings, the local-group law and
    path independence.

    The law is S(y) = the intersection of T(y>=c)^-1 S(c) T(y>=c) over the
    facets c of y; a violation names y and the least element of the
    intersection outside S(y).  It is checked only once every embedding holds.
    """
    group, quotient = triple.group, triple.quotient
    violations = []

    if len(triple.stabilizers) != len(quotient):
        violations.append(
            f"stabilizer map covers {len(triple.stabilizers)} of {len(quotient)} simplices"
        )
    relations = {
        (parent, child)
        for parent in range(len(quotient))
        for child in quotient.faces_codim1[parent]
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

    # The converse, once containment holds: S(y) is all of the intersection
    # of T(y>=c)^-1 S(c) T(y>=c) over the facets c of y.  Containment puts S(y)
    # in each conjugate, so a facet stabilizer as large as S(y) settles it.
    if not violations:
        stabilizers = triple.stabilizers
        orders = [len(s) for s in stabilizers]
        for y, facets in enumerate(quotient.faces_codim1):
            if not facets or orders[y] in [orders[c] for c in facets]:
                continue
            # the smallest facet stabilizer conjugated back, cut down by the others
            first, *rest = sorted(facets, key=orders.__getitem__)
            g = triple.transfers[y, first]
            g_inv = group.inv(g)
            meet = [group.prod(group.prod(g_inv, s), g) for s in stabilizers[first].elements]
            for c in rest:
                g = triple.transfers[y, c]
                g_inv = group.inv(g)
                meet = [x for x in meet if group.prod(group.prod(g, x), g_inv) in stabilizers[c]]
            if len(meet) != orders[y]:
                extra = min(x for x in meet if x not in stabilizers[y])
                violations.append(
                    f"stabilizer of class {y} lacks element {extra}, which every transfer "
                    f"of {y} conjugates into the facet's stabilizer"
                )

    # Path independence over every pair of descending codim-1 paths of
    # length two sharing both endpoints.
    for top in range(len(quotient)):
        paths = {}
        for mid in quotient.faces_codim1[top]:
            for bottom in quotient.faces_codim1[mid]:
                product = group.prod(triple.transfers[mid, bottom], triple.transfers[top, mid])
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


def triple_to_doc(triple):
    """The triple's document; a transfer that is the identity, element 0, is left out."""
    return {
        "group": group_to_doc(triple.group),
        "quotient": complex_to_doc(triple.quotient),
        "stabilizers": [list(s.elements) for s in triple.stabilizers],
        "transfers": [
            [parent, child, g] for (parent, child), g in sorted(triple.transfers.items()) if g
        ],
    }


def triple_from_doc(doc):
    """Parse a triple document, checking structure but not algebraic laws.

    A codimension-1 face relation with no transfer entry gets the identity, so
    the parsed ``transfers`` has one entry per relation.  Keys other than the
    four of ``triple_to_doc`` are ignored.  The quotient and the stabilizer
    count are checked before the group is built, the costliest step.
    """
    if not isinstance(doc, dict):
        raise FormatError("triple must be an object", "$")
    quotient = complex_from_doc(doc.get("quotient"), "$.quotient")
    stabilizers_doc = doc.get("stabilizers")
    if not isinstance(stabilizers_doc, list) or len(stabilizers_doc) != len(quotient):
        raise FormatError(
            f"stabilizers must list one subgroup per quotient simplex "
            f"({len(quotient)} expected)",
            "$.stabilizers",
        )
    group = group_from_doc(doc.get("group"))

    stabilizers = []
    for i, members in enumerate(stabilizers_doc):
        where = f"$.stabilizers[{i}]"
        if not isinstance(members, list) or not all(
            type(g) is int and 0 <= g < group.order for g in members
        ):
            raise FormatError("subgroup must be a list of element indices", where)
        if len(set(members)) != len(members):
            raise FormatError("subgroup lists an element index twice", where)
        try:
            stabilizers.append(group.subgroup(members))
        except ValueError as exc:
            raise FormatError(str(exc), where) from exc

    transfers_doc = doc.get("transfers")
    if not isinstance(transfers_doc, list):
        raise FormatError("transfers must be a list", "$.transfers")
    given = {}
    for i, entry in enumerate(transfers_doc):
        where = f"$.transfers[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3 and all(type(v) is int for v in entry)):
            raise FormatError("transfer entry must be [parent, child, element]", where)
        parent, child, g = entry
        if not (0 <= parent < len(quotient) and child in quotient.faces_codim1[parent]):
            raise FormatError(f"({parent}, {child}) is not a codimension-1 face pair", where)
        if not 0 <= g < group.order:
            raise FormatError(f"element index {g} out of range", where)
        if (parent, child) in given:
            raise FormatError(f"duplicate transfer for ({parent}, {child})", where)
        given[(parent, child)] = g
    transfers = {
        (parent, child): given.get((parent, child), 0)
        for parent in range(len(quotient))
        for child in quotient.faces_codim1[parent]
    }

    return CompressedTriple(group, quotient, stabilizers, transfers)
