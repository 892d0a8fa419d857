"""Finite groups as multiplication tables.

Elements are referred to everywhere by their index: element h is the element
whose left-multiplication row carries the identity, index 0, to h.
``FiniteGroup`` walks every table out of the generators' rows.  A closure of
permutations numbers its elements in breadth-first discovery order, which is
deterministic for a fixed input; a group document keeps the numbering it gives.
A group keeps one ``Subgroup`` per member set, its closure checked once by
``extend_subgroup``; membership and left cosets are read from its coset table.
"""

from functools import cached_property
from operator import itemgetter

from .errors import FormatError, GroupTooLargeError

# The full multiplication table costs |G|^2 time and memory; at this order
# building it takes seconds and up to about 300 MB.
DEFAULT_MAX_ORDER = 4096

# Bound on |G| times the number of points the group is closed from, and on
# |G| times the number of an action's orbits: the closure holds |G|
# permutation tuples of its domain, and each orbit keeps a stabilizer of
# |G| / |orbit| elements and a coset map of |G| entries.  No table of |G| x |X|
# simplex images or |G| x n vertex images is built.  C_4096 acting on an
# 8192-cycle (4096 permutations of 8192 points) sits at the bound.
MAX_TABLE_ENTRIES = 1 << 25


class FiniteGroup:
    """A finite group as its multiplication table.

    ``_mult[a][x]`` is a*x, so row a carries 0 to a.  The rows are walked out
    of the generators' rows, the row of a*s being row a composed with row s;
    ``ValueError`` is raised when the walk reaches fewer than ``order`` elements.
    """

    def __init__(self, order, generator_rows):
        self.order = order
        self.generators = [row[0] for row in generator_rows]
        self._mult = table = [None] * order
        table[0] = tuple(range(order))
        found = [0]
        tree = []  # (h, a, i) per element h = a*s_i, met first from a
        # row a*s reads row a at the points of row s; in a group of order 1
        # the only product is already known, so no row of one point is composed
        steps = [(row[0], itemgetter(*row)) for row in generator_rows]
        for a in found:  # grows while walked
            row_a = table[a]
            for i, (s, compose) in enumerate(steps):
                h = row_a[s]
                if table[h] is None:
                    table[h] = compose(row_a)
                    found.append(h)
                    tree.append((h, a, i))
        if len(found) < order:
            raise ValueError(f"generators reach {len(found)} of {order} elements")
        # (a*s)^-1 = s^-1 * a^-1, and a is met before a*s; s*x = 0 at x = s^-1
        generator_inverses = [row.index(0) for row in generator_rows]
        self._inverse = inverse = [0] * order
        for h, a, i in tree:
            inverse[h] = table[generator_inverses[i]][inverse[a]]
        self._subgroups = {}  # sorted members -> the one Subgroup with those members

    def prod(self, g, h):
        """Index of the product g*h."""
        return self._mult[g][h]

    def inv(self, g):
        """Index of the inverse of g."""
        return self._inverse[g]

    def minrep(self, subgroup, g):
        """Enumeration-minimal element of the left coset g*H."""
        return subgroup.coset_reps[g]

    def subgroup(self, members):
        """The one ``Subgroup`` with these members, checked when first built."""
        key = tuple(sorted(set(members)))
        subgroup = self._subgroups.get(key)
        if subgroup is None:
            subgroup = self._subgroups[key] = Subgroup(self, key)
        return subgroup

    def full_subgroup(self):
        return self.subgroup(range(self.order))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self._mult == other._mult

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, generators={self.generators})"


def extend_subgroup(mult, elements, reached, g):
    """Grow the subgroup listed in ``elements`` to the one g joins it in, in place.

    ``reached[h]`` flags the members of ``elements`` and is set for each
    element added.  The new subgroup is a union of left cosets c*H of the old
    one, H, and a union of left cosets of H closed under right multiplication
    by g is closed under <H, g>: so each member, old or added, is multiplied
    by g alone, and each product not reached yet brings in its coset of H.
    """
    subgroup = elements[:]
    for a in elements:  # grows while walked
        c = mult[a][g]
        if not reached[c]:
            row = mult[c]
            for h in subgroup:
                b = row[h]
                reached[b] = 1
                elements.append(b)


class Subgroup:
    """A subgroup as a sorted member list, shared: no caller may mutate ``elements``.

    It holds the group's table, not the group, so the two form no cycle.
    ``coset_reps[g]``, built on first use, is the minimal element of g*H.
    """

    def __init__(self, group, members):
        self._mult = group._mult
        self.elements = sorted(set(members))
        if not self.elements or self.elements[0] != 0:
            raise ValueError("subgroup must contain the identity")
        if self.elements[-1] >= group.order:
            raise ValueError(f"element index {self.elements[-1]} out of range")
        # The subgroup the members generate holds them all; they form a
        # subgroup exactly when it holds nothing else.
        closure, reached = [0], bytearray(group.order)
        reached[0] = 1
        for g in self.elements:
            if not reached[g]:
                extend_subgroup(group._mult, closure, reached, g)
                if len(closure) > len(self.elements):
                    raise ValueError("subgroup not closed under multiplication")

    @cached_property
    def coset_reps(self):
        # walking G upwards, the first element met in each coset is its minimum
        reps = [None] * len(self._mult)
        for g, row in enumerate(self._mult):
            if reps[g] is None:
                for h in self.elements:
                    reps[row[h]] = g
        return reps

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return self.coset_reps[g] == 0

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self._mult is other._mult and self.elements == other.elements

    def __repr__(self):
        return f"Subgroup({self.elements})"


def enumerate_from_generators(generators, domain_size):
    """Close a list of permutations under composition, breadth first.

    Each generator must be a bijection on 0..domain_size-1.  The identity is
    discovered first (index 0) and new elements are found by right-multiplying
    known elements with generators in input order, so the enumeration is
    deterministic.  The generators' rows are read off the Cayley graph.
    """
    gens = []
    for i, perm in enumerate(generators):
        perm = tuple(perm)
        if sorted(perm) != list(range(domain_size)):
            raise ValueError(f"generator {i} is not a bijection on 0..{domain_size - 1}")
        gens.append(perm)

    identity = tuple(range(domain_size))
    perms = [identity]
    seen = {identity: 0}
    parents = [0]
    last_generators = [0]
    right = []
    # pg * ps reads pg at the points of ps; the only permutation of fewer than
    # two points is the identity, and itemgetter needs two indices to return a tuple
    composers = [itemgetter(*ps) if domain_size > 1 else tuple for ps in gens]
    # perms grows while it is walked, so index order is breadth-first order
    for pg in perms:
        row = []
        for i, compose in enumerate(composers):
            new = compose(pg)
            h = seen.get(new)
            if h is None:
                h = len(perms)
                if h >= DEFAULT_MAX_ORDER:
                    raise GroupTooLargeError(
                        f"generator closure exceeds maximum order {DEFAULT_MAX_ORDER}"
                    )
                if (h + 1) * domain_size > MAX_TABLE_ENTRIES:
                    raise GroupTooLargeError(
                        f"generator closure of more than {h} permutations of "
                        f"{domain_size} points exceeds the maximum of "
                        f"{MAX_TABLE_ENTRIES} table entries"
                    )
                seen[new] = h
                perms.append(new)
                parents.append(len(right))
                last_generators.append(i)
            row.append(h)
        right.append(row)

    del perms, seen
    # s*h = (s*parent(h))*last(h), filled in discovery order so s*parent(h) is known
    rows = [[s] * len(right) for s in right[0]]
    for row in rows:
        for h in range(1, len(right)):
            row[h] = right[row[parents[h]]][last_generators[h]]
    return FiniteGroup(len(right), rows)


def group_to_doc(group):
    """Portable form: order plus the row of each generator in the table.

    ``group_from_doc`` reads element h as the element whose row carries 0 to
    h, so element indices survive a roundtrip.
    """
    return {
        "order": group.order,
        "generators": [list(group._mult[g]) for g in group.generators],
    }


def group_from_doc(doc):
    if not isinstance(doc, dict):
        raise FormatError("group must be an object", "$.group")
    order = doc.get("order")
    gens = doc.get("generators")
    if type(order) is not int or order < 1:
        raise FormatError("order must be a positive integer", "$.group.order")
    if order > DEFAULT_MAX_ORDER:
        raise FormatError(
            f"order exceeds the maximum order {DEFAULT_MAX_ORDER}", "$.group.order"
        )
    if not isinstance(gens, list):
        raise FormatError("generators must be a list", "$.group.generators")
    for i, perm in enumerate(gens):
        if (
            not isinstance(perm, list)
            or len(perm) != order
            or not all(type(v) is int for v in perm)
            or sorted(perm) != list(range(order))
        ):
            raise FormatError(
                f"generator must be a permutation of 0..{order - 1}",
                f"$.group.generators[{i}]",
            )
    try:
        group = FiniteGroup(order, gens)
    except ValueError as exc:
        raise FormatError(str(exc), "$.group.generators") from exc
    # The walk kept one product of rows per element a, and a*t lies at
    # R_t(a) = table[a][t]; each element h = a*s it found is R_s(a).  The rows
    # generate a group acting regularly exactly when every R_t commutes with
    # every row.  If they do, so do the products of the R_t, and along the walk
    # those products carry 0 to every point: an element fixing 0 then fixes
    # every point, so the stabilizer of 0 is trivial and the walk's products
    # are the whole group.  Conversely, the right multiplications of a regular
    # representation commute with its rows.  k^2 * |G| reads for k rows.
    table = group._mult
    for t in group.generators:
        right = [row[t] for row in table]
        if any(list(map(right.__getitem__, s)) != list(map(s.__getitem__, right)) for s in gens):
            raise FormatError(
                f"generators are not a regular representation of order {order}",
                "$.group.generators",
            )
    return group
