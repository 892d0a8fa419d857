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
action it came from.  Both readers of a triple work on whole lists:
``triple_from_doc`` checks each distinct stabilizer list once, after one pass
over every entry's types, and ``validate_triple`` checks each distinct
conjugation and path pair once, reading the quotient a dimension and a facet
position at a time.  Each law has this one pass: it keeps its failing cases,
and only once one has failed are the violations spelled out, from the keys
the pass built.
"""

from itertools import chain, combinations, compress, count
from operator import contains, itemgetter, not_

from .complexes import complex_from_doc, complex_to_doc
from .errors import FormatError
from .groups import group_from_doc, group_to_doc


class CompressedTriple:
    def __init__(self, group, quotient, stabilizers, transfers):
        self.group = group
        self.quotient = quotient
        self.stabilizers = stabilizers  # Subgroup per quotient simplex id
        self.transfers = transfers  # (parent id, child id) -> element index


class ValidationReport:
    def __init__(self, valid, violations):
        self.valid = valid
        self.violations = violations

    def to_doc(self):
        return {"valid": self.valid, "violations": self.violations}


def validate_triple(triple):
    """Check domain totality, conjugation embeddings, the local-group law and
    path independence.

    The law is S(y) = the intersection of T(y>=c)^-1 S(c) T(y>=c) over the
    facets c of y; a violation names y and the least element of the
    intersection outside S(y).  It is checked only once every embedding holds.
    Each check runs once per distinct case: a conjugation per (parent
    stabilizer, child stabilizer, transfer), keyed by the stabilizers' ids, and
    a path pair per (four transfers, bottom stabilizer).  Only once a case has
    failed are the violations listed, in relation, class and path order (by
    top, then bottom), each by the key of its failing case.
    """
    group, quotient, transfers = triple.group, triple.quotient, triple.transfers
    stabilizers = triple.stabilizers
    faces = quotient.faces_codim1
    violations = []

    if len(stabilizers) != len(quotient):
        violations.append(
            f"stabilizer map covers {len(stabilizers)} of {len(quotient)} simplices"
        )
    children = list(chain.from_iterable(faces))
    if len(transfers) != len(children) or not all(
        map(transfers.__contains__, zip(_parents(quotient), children))
    ):
        relations = set(zip(_parents(quotient), children))
        for parent, child in sorted(relations - transfers.keys()):
            violations.append(f"transfer missing for relation {parent} >= {child}")
        for parent, child in sorted(transfers.keys() - relations):
            violations.append(f"transfer keyed by non-face pair ({parent}, {child})")
    if violations:
        return ValidationReport(False, violations)

    ids = list(map(id, stabilizers))
    by_id = dict(zip(ids, stabilizers))
    conjugations = zip(
        map(ids.__getitem__, map(itemgetter(0), transfers)),
        map(ids.__getitem__, map(itemgetter(1), transfers)),
        transfers.values(),
    )
    failures = {}  # conjugation -> (element, conjugate outside the child stabilizer)
    for parent_id, child_id, g in dict.fromkeys(conjugations):
        g_inv = group.inv(g)
        for a in by_id[parent_id].elements:
            conjugate = group.prod(group.prod(g, a), g_inv)
            if conjugate not in by_id[child_id]:
                failures[parent_id, child_id, g] = a, conjugate
                break
    if failures:
        for (parent, child), g in sorted(transfers.items()):
            failure = failures.get((ids[parent], ids[child], g))
            if failure:
                a, conjugate = failure
                violations.append(
                    f"conjugation by transfer of {parent} >= {child} maps element {a} "
                    f"to {conjugate}, outside the child stabilizer"
                )

    # The converse, once containment holds: S(y) is all of the intersection
    # of T(y>=c)^-1 S(c) T(y>=c) over the facets c of y.  Containment puts S(y)
    # in each conjugate, so a facet stabilizer as large as S(y) settles it.
    if not violations:
        orders = list(map(len, stabilizers))
        unsettled = []
        for d, start, stop in zip(count(1), quotient._starts[1:], quotient._starts[2:]):
            tops = faces[start:stop]
            facet_orders = zip(
                *[map(orders.__getitem__, map(itemgetter(k), tops)) for k in range(d + 1)]
            )
            settled = map(contains, facet_orders, orders[start:stop])
            unsettled += compress(range(start, stop), map(not_, settled))
        for y in unsettled:
            # the smallest facet stabilizer conjugated back, cut down by the others
            first, *rest = sorted(faces[y], key=orders.__getitem__)
            g = transfers[y, first]
            g_inv = group.inv(g)
            meet = [group.prod(group.prod(g_inv, s), g) for s in stabilizers[first].elements]
            for c in rest:
                g = transfers[y, c]
                g_inv = group.inv(g)
                meet = [x for x in meet if group.prod(group.prod(g, x), g_inv) in stabilizers[c]]
            if len(meet) != orders[y]:
                extra = min(x for x in meet if x not in stabilizers[y])
                violations.append(
                    f"stabilizer of class {y} lacks element {extra}, which every transfer "
                    f"of {y} conjugates into the facet's stabilizer"
                )

    # Path independence over every pair of descending codim-1 paths of
    # length two sharing both endpoints: the paths from a d-simplex down past
    # its vertices at positions i < j, through the facet less j (facet d - j,
    # as facet k drops vertex d - k: the lower id, so the reference path) and
    # through the facet less i.  Exactly these two paths join a top to each
    # of its codimension-2 faces.
    paths = []  # (tops, mids less j, mids less i, bottoms, cases) per d and i < j
    for d, start, stop in zip(count(2), quotient._starts[2:], quotient._starts[3:]):
        tops = range(start, stop)
        columns = [list(map(itemgetter(k), faces[start:stop])) for k in range(d + 1)]
        for i, j in combinations(range(d + 1), 2):
            mids_j, mids_i = columns[d - j], columns[d - i]
            bottoms = list(map(itemgetter(d - 1 - i), map(faces.__getitem__, mids_j)))
            cases = zip(
                map(transfers.__getitem__, zip(tops, mids_j)),
                map(transfers.__getitem__, zip(mids_j, bottoms)),
                map(transfers.__getitem__, zip(tops, mids_i)),
                map(transfers.__getitem__, zip(mids_i, bottoms)),
                map(ids.__getitem__, bottoms),
            )
            paths.append((tops, mids_j, mids_i, bottoms, list(cases)))
    deltas = {}  # failing case -> the disagreement, outside the bottom stabilizer
    for case in set(chain.from_iterable(map(itemgetter(4), paths))):
        t_top_j, t_j, t_top_i, t_i, bottom = case
        reference = group.prod(t_j, t_top_j)
        delta = group.prod(reference, group.inv(group.prod(t_i, t_top_i)))
        if delta not in by_id[bottom]:
            deltas[case] = delta
    if deltas:
        disagreements = sorted(
            (top, bottom, mid_j, mid_i, deltas[case])
            for tops, mids_j, mids_i, bottoms, cases in paths
            for top, mid_j, mid_i, bottom, case in zip(tops, mids_j, mids_i, bottoms, cases)
            if case in deltas
        )
        for top, bottom, mid_j, mid_i, delta in disagreements:
            violations.append(
                f"paths {top} >= {mid_j} >= {bottom} and {top} >= {mid_i} >= {bottom} "
                f"disagree by {delta}, outside the bottom stabilizer"
            )

    return ValidationReport(not violations, violations)


def _parents(quotient):
    """Each simplex id once per facet, ascending: the parent column of the face
    relations, beside the child column ``chain.from_iterable(faces_codim1)``.

    A d-simplex has d + 1 facets, so each dimension's ids are listed d + 1
    times and sorted.
    """
    starts = quotient._starts
    return chain.from_iterable(
        sorted(list(range(start, stop)) * (d + 1))
        for d, start, stop in zip(count(1), starts[1:], starts[2:])
    )


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

    # Every entry must be a list of ints before the lists are keyed by their
    # members: True == 1.0 == 1 with equal hashes, so [0, true] would share
    # the key of an earlier [0, 1].  Entries before the first mistyped one are
    # still checked, so the first bad index is named.
    typed = len(stabilizers_doc)
    if not (
        set(map(type, stabilizers_doc)) <= {list}
        and set(map(type, chain.from_iterable(stabilizers_doc))) <= {int}
    ):
        mistyped = (
            i
            for i, members in enumerate(stabilizers_doc)
            if not (isinstance(members, list) and all(type(g) is int for g in members))
        )
        typed = next(mistyped, typed)
    keys = list(map(tuple, stabilizers_doc[:typed]))
    subgroups = dict.fromkeys(keys)  # each distinct member list, checked once
    for members in subgroups:
        try:
            subgroups[members] = _subgroup(group, members)
        except ValueError as exc:
            raise FormatError(str(exc), f"$.stabilizers[{keys.index(members)}]") from exc
    if typed < len(stabilizers_doc):
        raise FormatError("subgroup must be a list of element indices", f"$.stabilizers[{typed}]")
    stabilizers = list(map(subgroups.__getitem__, keys))

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
    relations = zip(_parents(quotient), chain.from_iterable(quotient.faces_codim1))
    transfers = dict.fromkeys(relations, 0)
    transfers.update(given)

    return CompressedTriple(group, quotient, stabilizers, transfers)


def _subgroup(group, members):
    """The group's ``Subgroup`` on a list of element indices; ValueError if it is none."""
    if not all(0 <= g < group.order for g in members):
        raise ValueError("subgroup must be a list of element indices")
    if len(set(members)) != len(members):
        raise ValueError("subgroup lists an element index twice")
    return group.subgroup(members)
