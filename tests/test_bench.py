import math
from collections import Counter

import pytest

from equicompress.bench import (
    CSV_COLUMNS,
    FAMILIES,
    SUBROUTINES,
    bench_one,
    counted,
    fit_exponent,
    growth_exponents,
    rows_to_csv,
    run_bench,
)


def test_families_registered():
    assert set(FAMILIES) == {"cycle", "dihedral-cycle", "simplex-rotation"}


def test_row_shape_and_parameter_bounds():
    row, triple, rc = bench_one("cycle", 4)
    assert set(CSV_COLUMNS) <= set(row)
    k = row["k"]
    assert row["fixture"] == "cycle-4"
    assert k == 4
    assert row["n"] == 1
    assert row["f"] <= k and row["h"] <= k
    assert row["simplices"] == 32
    assert len(rc.complex.simplices) == 32
    # every phase made at least one counted call
    assert row["compress_trans"] > 0
    # sum_{dim y >= 1} [G:S(y)]*(dim y + 1); the cycle's edges are free
    edges = triple.quotient.counts_by_dim()[1]
    assert row["reconstruct_minrep"] == k * edges * 2


def test_dihedral_and_rotation_families_run():
    row, _, _ = bench_one("dihedral-cycle", 3)
    assert row["k"] == 6
    row, _, _ = bench_one("simplex-rotation", 3)
    assert row["k"] == 3
    assert row["n"] == 2


def test_every_compress_repeat_starts_from_a_fresh_action(monkeypatch):
    # an action keeps its quotient and stabilizers, so a repeat on the same
    # action would time less than a whole compression
    once, _, _ = bench_one("cycle", 4)
    built = []
    family = FAMILIES["cycle"]
    monkeypatch.setitem(FAMILIES, "cycle", lambda order: built.append(order) or family(order))
    row, _, _ = bench_one("cycle", 4, repeats=3)
    assert built == [4, 4, 4]
    untimed = [key for key in row if not key.endswith("_seconds")]
    assert [row[key] for key in untimed] == [once[key] for key in untimed]


def call_each_subroutine(action):
    group = action.group
    group.prod(1, 1)
    group.inv(1)
    group.minrep(group.subgroup([0]), 1)
    action.stab(0)
    action.trans(0, 1)


def test_counted_counts_each_call_and_leaves_no_hook_behind():
    action = FAMILIES["cycle"](3)
    _, counts = counted(action, lambda: call_each_subroutine(action))
    assert counts == Counter(dict.fromkeys(SUBROUTINES, 1))

    def fail():
        call_each_subroutine(action)
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        counted(action, fail)
    for obj in (action.group, action):
        assert not set(SUBROUTINES) & set(vars(obj))
    call_each_subroutine(action)
    assert counts == Counter(dict.fromkeys(SUBROUTINES, 1))


def test_single_order_run_gives_one_row():
    rows = run_bench("cycle", [6])
    assert len(rows) == 1


def test_csv_output():
    rows = run_bench("cycle", [2, 3])
    text = rows_to_csv(rows, {"compress": 1.0})
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert lines[-1].startswith("# exponent,compress,")
    for line in lines[1:3]:
        assert len(line.split(",")) == len(CSV_COLUMNS)


def test_fit_exponent_on_synthetic_data():
    ks = [2, 3, 4, 6, 8, 12]
    assert fit_exponent(ks, [k**2 * 0.01 for k in ks]) == pytest.approx(2.0)
    assert fit_exponent(ks, [k * 5.0 for k in ks]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fit_exponent([2], [1.0])


def test_growth_exponents_cover_both_phases():
    rows = run_bench("cycle", [2, 4])
    exps = growth_exponents(rows)
    assert set(exps) == {"compress", "reconstruct"}
    assert all(math.isfinite(v) for v in exps.values())
