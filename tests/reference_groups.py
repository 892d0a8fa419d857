"""Test reference: the group-document check as it was, composing every element with every row.

``reference_group_from_doc`` walks the table as ``group_from_doc`` does and
then reads k * |G|^2 table entries for k generator rows: the walk's products
are the group the rows generate, acting regularly, exactly when they are
closed under each generator.  The code is kept as it was, with its name
prefixed, so that the k^2 * |G| check can be compared with it verdict by
verdict.
"""

from equicompress.errors import FormatError
from equicompress.groups import DEFAULT_MAX_ORDER, FiniteGroup


def reference_group_from_doc(doc):
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
    # The walk kept one product of rows per element.  Those products are the
    # group the rows generate, acting regularly, exactly when they are closed
    # under each generator: a*s must be the row its 0-image names.
    table = group._mult
    if any(table[a[s[0]]] != tuple([a[x] for x in s]) for a in table for s in gens):
        raise FormatError(
            f"generators are not a regular representation of order {order}", "$.group.generators"
        )
    return group
