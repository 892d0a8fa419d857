"""Acceptance gate: one test per top-level guarantee, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines on the terminal.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import equicompress
from equicompress.actions import action_to_doc, check_regularity, quotient
from equicompress.bench import (
    COMPRESS_EXPONENT_BOUND,
    EXPONENT_SLACK,
    RECONSTRUCT_EXPONENT_BOUND,
    counted,
    growth_exponents,
    run_bench,
)
from equicompress.cog import validate_triple
from equicompress.compress import compress
from equicompress.families import (
    c3_triangle_action,
    klein_four_bowtie_action,
    regular_fixtures,
    subdivide_action,
    twelve_cycle_shift_action,
)
from equicompress.reconstruct import reconstruct, recovered_action
from equicompress.verify import verify_roundtrip

from oracles import find_equivariant_isomorphism
from relabel import moved_lifts, relabelled
from test_oracle import micro_fixtures, oracle_reconstruct


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}", file=sys.stderr)
                raise
            print(f"[PASS] criterion {number}: {title}")

        return run

    return wrap


FIXTURES = regular_fixtures()


@criterion(1, "roundtrip verifies exhaustively on every fixture")
def test_criterion_1_roundtrip():
    start = time.perf_counter()
    for name, action in FIXTURES.items():
        rc = reconstruct(compress(action))
        report = verify_roundtrip(action, rc)
        assert report.passed, (name, report.to_doc())
        assert all(ok for ok, _ in report.properties.values()), name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"roundtrips took {elapsed:.1f}s, budget is 5s"


@criterion(2, "orbit-stabilizer accounting is exact on every fixture")
def test_criterion_2_accounting():
    for name, action in FIXTURES.items():
        triple = compress(action)
        _, orbit_map, _ = quotient(action)
        k = action.group.order
        assert sum(k // len(s) for s in triple.stabilizers) == len(action.complex), name
        fibers = [0] * len(triple.quotient)
        for y in orbit_map:
            fibers[y] += 1
        for y, stab in enumerate(triple.stabilizers):
            assert fibers[y] == k // len(stab), name


@criterion(3, "every compressed triple passes algebraic validation")
def test_criterion_3_validity():
    for name, action in FIXTURES.items():
        triple = compress(action)
        report = validate_triple(triple)
        assert report.valid, (name, report.violations)


@criterion(4, "irregular fixtures regularize on the second subdivision")
def test_criterion_4_regularization():
    cases = [
        (klein_four_bowtie_action(), "pointwise-fix"),
        (twelve_cycle_shift_action(), "orbit-closure"),
        (subdivide_action(c3_triangle_action()), "orbit-closure"),
    ]
    for action, condition in cases:
        report = check_regularity(action)
        assert not report.regular
        assert report.condition == condition
        assert check_regularity(subdivide_action(action, 2)).regular


@criterion(5, "the choice of lifts does not change the reconstruction type")
def test_criterion_5_choice_independence():
    for name, action in FIXTURES.items():
        if len(action.complex) > 300:
            continue
        copy, to_copy = relabelled(action)
        if action.group.order > 1:
            assert moved_lifts(action, copy, to_copy) >= 1, name
        rc = reconstruct(compress(action))
        rc_copy = reconstruct(compress(copy))
        vmap = find_equivariant_isomorphism(recovered_action(rc), recovered_action(rc_copy))
        assert vmap is not None, name


# subdivide -> compress -> reconstruct -> roundtrip through the CLI, each
# artifact written to a file in the output directory
PIPELINE = """
import sys
from equicompress.cli import main
raw, out = sys.argv[1:]
for argv in (
    ["subdivide", "--action", raw, "--times", "2", "--out", out + "/regular.json"],
    ["compress", "--action", out + "/regular.json", "--out", out + "/triple.json"],
    ["reconstruct", "--triple", out + "/triple.json", "--out", out + "/rebuilt.json"],
    ["roundtrip", "--action", out + "/regular.json", "--out", out + "/roundtrip.json"],
):
    if main(argv) != 0:
        sys.exit(f"exit code != 0 for {argv}")
"""


@criterion(6, "CLI outputs are byte-identical across processes with different hash seeds")
def test_criterion_6_determinism():
    src = str(Path(equicompress.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        raw = os.path.join(tmp, "raw.json")
        with open(raw, "w") as fh:
            json.dump(action_to_doc(klein_four_bowtie_action()), fh)
        outputs = []
        for seed in ("0", "1"):
            out = os.path.join(tmp, f"seed-{seed}")
            os.mkdir(out)
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-c", PIPELINE, raw, out],
                env=env,
                check=True,
                capture_output=True,
                timeout=120,
            )
            outputs.append(
                {name: Path(out, name).read_bytes() for name in sorted(os.listdir(out))}
            )
        assert sorted(outputs[0]) == [
            "rebuilt.json",
            "regular.json",
            "roundtrip.json",
            "triple.json",
        ]
        assert outputs[0] == outputs[1]


@criterion(7, "subroutine counts are exact and wall time grows within bounds")
def test_criterion_7_complexity():
    for name, action in FIXTURES.items():
        # one trans per facet of each lift; one minrep per facet of each
        # reconstructed simplex
        triple, compress_counts = counted(action, lambda: compress(action))
        dims = [len(s) - 1 for s in triple.quotient.simplices]
        assert compress_counts["trans"] == sum(d + 1 for d in dims if d >= 1), name
        _, reconstruct_counts = counted(action, lambda: reconstruct(triple))
        k = action.group.order
        facets = sum(
            k // len(triple.stabilizers[y]) * (d + 1) for y, d in enumerate(dims) if d >= 1
        )
        assert reconstruct_counts["minrep"] == facets, name

    rows = run_bench("cycle", [2, 3, 4, 6, 8, 12], repeats=5)
    exps = growth_exponents(rows)
    assert exps["compress"] <= COMPRESS_EXPONENT_BOUND + EXPONENT_SLACK, exps
    assert exps["reconstruct"] <= RECONSTRUCT_EXPONENT_BOUND + EXPONENT_SLACK, exps


@criterion(8, "engine output matches the brute-force oracle at micro scale")
def test_criterion_8_oracle():
    from equicompress.complexes import complexes_equal

    checked = 0
    for name, action in micro_fixtures():
        triple = compress(action)
        rc = reconstruct(triple)
        assert complexes_equal(oracle_reconstruct(triple), rc.complex), name
        checked += 1
    assert checked >= 3
