"""Test reference: ``validate_triple`` as it was with one interpreted loop per
relation, per class and per path.

Every conjugation is checked once per face relation, every length-2 path pair
once per top simplex, and the violations come out in the order the loops meet
them.  The code is kept as it was, with its name prefixed, so that the
validator that checks each distinct case once can be compared with it report
by report.
"""

from equicompress.cog import ValidationReport


def reference_validate_triple(triple):
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
