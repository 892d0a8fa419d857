"""Test helper: rename the vertices of an action to move its canonical lifts.

``quotient`` lifts every orbit class to its minimal member in canonical
order.  Renaming vertex v to n-1-v reverses that order on the vertices, so
the copy's lifts, read back in the original, are other members of almost
every class.  Comparing the two compressions tests that the reconstruction
does not depend on the choice of lifts.  Renumbering the elements of a
triple document instead tests that a document is read in its own numbering.
"""

from equicompress.actions import GroupAction, quotient
from equicompress.cog import triple_to_doc
from equicompress.complexes import build_complex
from equicompress.compress import compress
from equicompress.families import subdivide_action, triangle_complex


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
    # vertex v is simplex v, so a generator's simplex row begins with its vertex images
    images = [[top - row[top - v] for v in range(top + 1)] for row in action.generator_rows]
    copy = GroupAction(action.group, renamed, images)
    return copy, [renamed.index[rename(s)] for s in complex_.simplices]


def moved_lifts(action, copy, to_copy):
    """Number of classes whose lift in ``copy`` is not the renamed lift in ``action``."""
    copy_lifts = set(quotient(copy)[2])
    return sum(1 for lift in quotient(action)[2] if to_copy[lift] not in copy_lifts)


def renumbered(doc, phi):
    """A triple document with element index a renamed phi[a] throughout.

    Each generator row moves with its element: the new row of phi[s] carries
    phi[x] to phi[s*x].
    """
    gens = []
    for row in doc["group"]["generators"]:
        new = [0] * len(row)
        for x, y in enumerate(row):
            new[phi[x]] = phi[y]
        gens.append(new)
    return {
        "group": {"order": doc["group"]["order"], "generators": gens},
        "quotient": doc["quotient"],
        "stabilizers": [sorted(phi[a] for a in members) for members in doc["stabilizers"]],
        "transfers": [[parent, child, phi[g]] for parent, child, g in doc["transfers"]],
    }


def renumbered_s3_triangle():
    """S_3 on the twice-subdivided triangle, and its triple renumbered by a non-automorphism.

    Returns the action, the renumbering phi and the renumbered triple document.
    """
    s3 = GroupAction.from_generator_perms([[1, 2, 0], [1, 0, 2]], triangle_complex())
    action = subdivide_action(s3, 2)
    phi = [0, 3, 4, 5, 1, 2]
    return action, phi, renumbered(triple_to_doc(compress(action)), phi)
