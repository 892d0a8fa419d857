"""Test helper: rename the vertices of an action to move its canonical lifts.

``quotient`` lifts every orbit class to its minimal member in canonical
order.  Renaming vertex v to n-1-v reverses that order on the vertices, so
the copy's lifts, read back in the original, are other members of almost
every class.  Comparing the two compressions tests that the reconstruction
does not depend on the choice of lifts.
"""

from equicompress.actions import GroupAction, quotient
from equicompress.complexes import build_complex


def relabelled(action):
    """The action with vertex v renamed n-1-v, over the same group.

    Returns the renamed action and, per simplex id of ``action``, the id of
    the renamed simplex.
    """
    complex_ = action.complex
    top = complex_.vertex_count - 1

    def rename(simplex):
        return tuple(sorted(top - v for v in simplex))

    renamed = build_complex(
        [rename(s) for s in complex_.maximal_simplices()], vertex_count=complex_.vertex_count
    )
    images = [[top - row[top - v] for v in range(top + 1)] for row in action.generator_images]
    copy = GroupAction(action.group, renamed, images)
    return copy, [renamed.index[rename(s)] for s in complex_.simplices]


def moved_lifts(action, copy, to_copy):
    """Number of classes whose lift in ``copy`` is not the renamed lift in ``action``."""
    copy_lifts = set(quotient(copy)[2])
    return sum(1 for lift in quotient(action)[2] if to_copy[lift] not in copy_lifts)
