"""Reusable example complexes and actions.

These cover the shapes the compression pipeline is exercised on: cycles with
rotations and reflections, the bow-tie (two triangles glued at a point) with
its flip symmetries, the solid triangle with its rotation, and cones over
polygons.  Most raw actions here are irregular; ``subdivide_action`` pushes an
action through barycentric subdivision, and two subdivisions always produce a
regular action.  The builders return raw actions, ``wheel_rotation_action``
excepted; a subdivided one is ``subdivide_action(builder(), n)``.
"""

from .actions import GroupAction, induced_action_on_subdivision
from .complexes import build_complex


def triangle_complex():
    """The solid triangle: three vertices, all faces."""
    return build_complex([[0, 1, 2]])


def bowtie_complex():
    """Two solid triangles sharing the center vertex 2.

    Vertices: 0 top-left, 1 bottom-left, 2 center, 3 top-right, 4 bottom-right.
    """
    return build_complex([[0, 1, 2], [2, 3, 4]])


def cycle_complex(n):
    """The boundary of an n-gon."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return build_complex([[i, (i + 1) % n] for i in range(n)])


def wheel_complex(m):
    """Cone over an m-gon: rim vertices 0..m-1, apex m."""
    if m < 3:
        raise ValueError("a wheel needs at least 3 rim vertices")
    return build_complex([[i, (i + 1) % m, m] for i in range(m)])


def trivial_action(complex_):
    """The trivial group acting on a complex."""
    return GroupAction.from_generator_perms([], complex_)


def subdivide_action(action, times=1):
    """Push an action through ``times`` barycentric subdivisions.

    The subdivision of a complex of dimension 0 or less is the complex itself,
    so such an action comes back unchanged, however large ``times`` is.
    """
    if action.complex.dim <= 0:
        return action
    for _ in range(times):
        action = induced_action_on_subdivision(action)
    return action


def c3_triangle_action():
    """Order-3 rotation of the solid triangle (regular after 2 subdivisions)."""
    return GroupAction.from_generator_perms([[1, 2, 0]], triangle_complex())


def klein_four_bowtie_action():
    """The two flips of the bow-tie: left-right within each triangle, and the
    swap of the two triangles.  Raw, the within-triangle flip stabilizes the
    left triangle without fixing its vertices; one subdivision already makes
    the action regular."""
    sigma = [1, 0, 2, 4, 3]
    tau = [3, 4, 2, 0, 1]
    return GroupAction.from_generator_perms([sigma, tau], bowtie_complex())


def cycle_rotation_action(m):
    """The order-m rotation of a 4m-gon boundary (shift by 4), regular as is."""
    n = 4 * m
    shift = [(v + 4) % n for v in range(n)]
    return GroupAction.from_generator_perms([shift], cycle_complex(n))


def dihedral_cycle_action(m):
    """Rotation plus the reflection v -> -v of a 4m-gon boundary (order 2m)."""
    n = 4 * m
    shift = [(v + 4) % n for v in range(n)]
    mirror = [(-v) % n for v in range(n)]
    return GroupAction.from_generator_perms([shift, mirror], cycle_complex(n))


def wheel_rotation_action(m):
    """Order-m rotation of the cone over an m-gon, twice subdivided to be regular."""
    perm = [(v + 1) % m for v in range(m)] + [m]
    return subdivide_action(GroupAction.from_generator_perms([perm], wheel_complex(m)), 2)


def hexagon_antipodal_action():
    """The antipodal flip of the hexagon boundary (order 2), regular as is."""
    return GroupAction.from_generator_perms([[3, 4, 5, 0, 1, 2]], cycle_complex(6))


def twelve_cycle_shift_action():
    """Shift by 2 on a 12-gon boundary; irregular (recombined edges escape
    their orbit)."""
    shift = [(v + 2) % 12 for v in range(12)]
    return GroupAction.from_generator_perms([shift], cycle_complex(12))


def regular_fixtures():
    """Named regular actions used across the test and benchmark suites."""
    fixtures = {
        "trivial-triangle": trivial_action(triangle_complex()),
        "c3-triangle-sd2": subdivide_action(c3_triangle_action(), 2),
        "klein-bowtie-sd2": subdivide_action(klein_four_bowtie_action(), 2),
        "hexagon-antipodal": hexagon_antipodal_action(),
    }
    for m in (2, 3, 4, 6, 8, 12):
        fixtures[f"cycle-{m}"] = cycle_rotation_action(m)
    for m in (3, 4, 6):
        fixtures[f"dihedral-{m}"] = dihedral_cycle_action(m)
    return fixtures


def irregular_fixtures():
    """Named irregular actions with the condition each one violates."""
    return {
        "klein-bowtie-raw": (klein_four_bowtie_action(), "pointwise-fix"),
        "c3-triangle-sd1": (subdivide_action(c3_triangle_action()), "orbit-closure"),
        "twelve-cycle-shift2": (twelve_cycle_shift_action(), "orbit-closure"),
        "hexagon-rotation": (
            GroupAction.from_generator_perms(
                [[1, 2, 3, 4, 5, 0]], cycle_complex(6)
            ),
            "distinct-vertex-orbits",
        ),
    }
