"""Desk-scale benchmark harness for the compression pipeline.

Runs built-in action families at a range of group orders, recording exact
subroutine invocation counts and wall times per phase, and fits a log-log
growth exponent of wall time against the group order k for each phase.  The
expected asymptotics are linear in k for compression and quadratic for
reconstruction (everything else held fixed), so the fitted exponents are
checked one-sidedly against 1 and 2 plus slack.
"""

import math
import time
from collections import Counter

from .compress import compress
from .families import cycle_rotation_action, dihedral_cycle_action, wheel_rotation_action
from .reconstruct import reconstruct

# Group and action subroutines whose invocations are counted exactly.
SUBROUTINES = ("prod", "inv", "minrep", "stab", "trans")

FAMILIES = {
    "cycle": cycle_rotation_action,
    "dihedral-cycle": dihedral_cycle_action,
    "simplex-rotation": wheel_rotation_action,
}

# Per family, the group order and the number of points its closure runs on at
# size m, known before the family member is built.
CLOSURE_SIZES = {
    "cycle": lambda m: (m, 4 * m),
    "dihedral-cycle": lambda m: (2 * m, 4 * m),
    "simplex-rotation": lambda m: (m, m + 1),
}

COMPRESS_EXPONENT_BOUND = 1.0
RECONSTRUCT_EXPONENT_BOUND = 2.0
EXPONENT_SLACK = 0.3

CSV_COLUMNS = (
    ["fixture", "k", "n", "simplices", "f", "h"]
    + ["compress_seconds", "reconstruct_seconds"]
    + [f"compress_{name}" for name in SUBROUTINES]
    + [f"reconstruct_{name}" for name in SUBROUTINES]
)


def counted(action, fn):
    """Run fn counting the SUBROUTINES calls on the action and its group; return counts.

    Each method is wrapped on the instance for the duration of fn only.
    """
    counts = Counter()

    def tally(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        return wrapper

    hooked = [
        (obj, name) for obj in (action.group, action) for name in SUBROUTINES if hasattr(obj, name)
    ]
    for obj, name in hooked:
        setattr(obj, name, tally(name, getattr(obj, name)))
    try:
        out = fn()
    finally:
        for obj, name in hooked:
            delattr(obj, name)
    return out, counts


def bench_one(family, order, repeats=1):
    """One BenchReport row: run the family member at the given group order."""
    best_compress = math.inf
    for _ in range(repeats):
        # a fresh action per repeat: an action keeps its quotient and stabilizers
        action = FAMILIES[family](order)
        t0 = time.perf_counter()
        triple, compress_counts = counted(action, lambda: compress(action))
        best_compress = min(best_compress, time.perf_counter() - t0)

    best_reconstruct = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc, reconstruct_counts = counted(action, lambda: reconstruct(triple))
        best_reconstruct = min(best_reconstruct, time.perf_counter() - t0)

    complex_ = action.complex
    f = max(Counter(action.orbit_ids).values())
    h = max(len(s) for s in triple.stabilizers)
    row = {
        "fixture": f"{family}-{order}",
        "k": action.group.order,
        "n": complex_.dim,
        "simplices": len(complex_),
        "f": f,
        "h": h,
        "compress_seconds": best_compress,
        "reconstruct_seconds": best_reconstruct,
    }
    for name in SUBROUTINES:
        row[f"compress_{name}"] = compress_counts[name]
        row[f"reconstruct_{name}"] = reconstruct_counts[name]
    return row, triple, rc


def run_bench(family, orders, repeats=1):
    """BenchReport rows for a family over several group orders."""
    return [bench_one(family, order, repeats=repeats)[0] for order in orders]


def fit_exponent(ks, times):
    """Least-squares slope of log(time) against log(k)."""
    if len(ks) < 2:
        raise ValueError("need at least two sizes to fit an exponent")
    xs = [math.log(k) for k in ks]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def growth_exponents(rows):
    """Fitted wall-time exponents per phase."""
    ks = [r["k"] for r in rows]
    return {
        "compress": fit_exponent(ks, [r["compress_seconds"] for r in rows]),
        "reconstruct": fit_exponent(ks, [r["reconstruct_seconds"] for r in rows]),
    }


def rows_to_csv(rows, exponents=None):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
                for c in CSV_COLUMNS
            )
        )
    if exponents:
        for phase in sorted(exponents):
            lines.append(f"# exponent,{phase},{exponents[phase]:.3f}")
    return "\n".join(lines) + "\n"
