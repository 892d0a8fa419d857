import copy
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equicompress
from equicompress import actions, cli, cog, groups
from equicompress.actions import GroupAction, action_to_doc, quotient
from equicompress.cli import main
from equicompress.cog import triple_from_doc, triple_to_doc
from equicompress.complexes import build_complex, complex_to_doc, subdivision_size
from equicompress.compress import compress
from equicompress.families import (
    c3_triangle_action,
    cycle_complex,
    cycle_rotation_action,
    hexagon_antipodal_action,
    irregular_fixtures,
    klein_four_bowtie_action,
    regular_fixtures,
    subdivide_action,
    trivial_action,
    triangle_complex,
)
from relabel import renumbered_s3_triangle


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return str(path)


@pytest.fixture
def hexagon_action_file(tmp_path):
    return write(tmp_path, "hexagon.json", action_to_doc(hexagon_antipodal_action()))


def test_check_regular_exit_codes(tmp_path, capsys):
    trivial = write(tmp_path, "trivial.json", action_to_doc(trivial_action(triangle_complex())))
    assert main(["check-regular", "--action", trivial]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regular"] is True

    bowtie = write(tmp_path, "bowtie.json", action_to_doc(klein_four_bowtie_action()))
    assert main(["check-regular", "--action", bowtie]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["condition"] == "pointwise-fix"
    assert report["witness"]["element"] == 1


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-regular", "--action", str(bad)]) == 2
    assert main(["check-regular", "--action", str(tmp_path / "missing.json")]) == 2
    notact = write(tmp_path, "notact.json", {"group": {}})
    assert main(["check-regular", "--action", notact]) == 2
    capsys.readouterr()


def test_duplicate_keys_exit_2(tmp_path, capsys, hexagon_action_file):
    # the hexagon's antipodal flip named "a", then the rotation named "a" again
    action = tmp_path / "twice.json"
    action.write_text(
        '{"complex": {"vertices": 6, "maximal_simplices": '
        "[[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]}, "
        '"group": {"generators": {"a": [3, 4, 5, 0, 1, 2], "a": [1, 2, 3, 4, 5, 0]}}}'
    )
    assert main(["check-regular", "--action", str(action)]) == 2
    assert capsys.readouterr().err == f'error: $: invalid JSON in {action}: duplicate key "a"\n'

    assert main(["compress", "--action", hexagon_action_file]) == 0
    text = capsys.readouterr().out
    triple = tmp_path / "twice-triple.json"
    triple.write_text(text.replace('"transfers":', '"transfers":[],"transfers":', 1))
    assert main(["validate-triple", "--triple", str(triple)]) == 2
    assert capsys.readouterr().err == (
        f'error: $: invalid JSON in {triple}: duplicate key "transfers"\n'
    )


def test_subdivide_complex(tmp_path, capsys):
    edge = write(tmp_path, "edge.json", {"vertices": 2, "maximal_simplices": [[0, 1]]})
    assert main(["subdivide", "--complex", edge, "--times", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 3
    assert len(doc["maximal_simplices"]) == 2

    hexagon = write(tmp_path, "hexagon.json", complex_to_doc(cycle_complex(6)))
    assert main(["subdivide", "--complex", hexagon, "--times", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 24
    assert len(doc["maximal_simplices"]) == 24


def test_subdivide_regularizes_action(tmp_path, capsys):
    bowtie = write(tmp_path, "bowtie.json", action_to_doc(klein_four_bowtie_action()))
    out = str(tmp_path / "sd2.json")
    assert main(["subdivide", "--action", bowtie, "--times", "2", "--out", out]) == 0
    assert main(["check-regular", "--action", out]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("form", ["complex", "action"])
def test_subdivide_of_points_runs_no_pass(tmp_path, capsys, monkeypatch, form):
    # the subdivision of isolated vertices is the identity, so a huge --times
    # stops at once instead of repeating it
    points = build_complex([], vertex_count=3)
    if form == "complex":
        argv = ["subdivide", "--complex", write(tmp_path, "points.json", complex_to_doc(points))]
    else:
        action = GroupAction.from_generator_perms([[1, 2, 0]], points)
        argv = ["subdivide", "--action", write(tmp_path, "points.json", action_to_doc(action))]
    assert main([*argv, "--times", "0"]) == 0
    unsubdivided = capsys.readouterr().out
    calls = []
    subdivide = cli.barycentric_subdivision
    for module in (cli, actions):
        monkeypatch.setattr(
            module, "barycentric_subdivision", lambda c: calls.append(c) or subdivide(c)
        )
    assert main([*argv, "--times", "1000"]) == 0
    assert capsys.readouterr().out == unsubdivided
    assert calls == []


def test_generator_names_sort_in_index_order(tmp_path, capsys):
    # C_2^11 swapping 11 pairs of 22 isolated points: named g0..g10, sorted
    # keys would list g10 before g2, so rewriting the action would renumber
    # the group and change every stabilizer list
    points = build_complex([], vertex_count=22)
    swaps = [[v ^ 1 if v // 2 == i else v for v in range(22)] for i in range(11)]
    action = GroupAction.from_generator_perms(swaps, points)
    path = write(tmp_path, "points.json", action_to_doc(action))
    same = str(tmp_path / "same.json")
    assert main(["subdivide", "--action", path, "--times", "0", "--out", same]) == 0
    triples = []
    for action_path in (path, same):
        assert main(["compress", "--action", action_path]) == 0
        triples.append(capsys.readouterr().out)
    assert triples[0] == triples[1]


def test_quotient(tmp_path, capsys, hexagon_action_file):
    assert main(["quotient", "--action", hexagon_action_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotient"]["vertices"] == 3
    assert len(doc["p"]) == 12


@pytest.mark.parametrize(
    "command",
    [["check-regular"], ["quotient"], ["compress"], ["roundtrip"], ["subdivide", "--times", "1"]],
    ids=lambda command: command[0],
)
def test_split_action_form_writes_the_inline_output(tmp_path, capsys, command):
    # an action file may leave its complex out and name it with --complex
    doc = action_to_doc(subdivide_action(klein_four_bowtie_action(), 2))
    inline = write(tmp_path, "inline.json", doc)
    complex_path = write(tmp_path, "complex.json", doc.pop("complex"))
    split = write(tmp_path, "split.json", doc)
    runs = {
        "inline": ["--action", inline],
        "split": ["--action", split, "--complex", complex_path],
    }
    for name, files in runs.items():
        assert main([*command, *files, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "split").read_bytes() == (tmp_path / "inline").read_bytes()

    assert main([*command, "--action", split]) == 2
    assert "error: $: action file has no inline complex and --complex not given" in (
        capsys.readouterr().err
    )


def test_compress_reconstruct_roundtrip(tmp_path, capsys, hexagon_action_file):
    triple_path = str(tmp_path / "triple.json")
    assert main(["compress", "--action", hexagon_action_file, "--out", triple_path]) == 0
    err = capsys.readouterr().err
    assert "ratio 2.000" in err

    assert main(["validate-triple", "--triple", triple_path]) == 0
    capsys.readouterr()

    rec_path = str(tmp_path / "rec.json")
    assert main(["reconstruct", "--triple", triple_path, "--out", rec_path]) == 0
    rec = json.loads(Path(rec_path).read_text())
    assert rec["complex"]["vertices"] == 6
    assert len(rec["labels"]) == 12

    assert main(["roundtrip", "--action", hexagon_action_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_roundtrip_checks_regularity_once(tmp_path, capsys, monkeypatch):
    # compress and the verifier both read the quotient; it is computed once
    calls = []
    check = actions.check_regularity
    monkeypatch.setattr(actions, "check_regularity", lambda a: calls.append(a) or check(a))
    action_path = write(
        tmp_path, "action.json", action_to_doc(subdivide_action(klein_four_bowtie_action(), 2))
    )
    assert main(["roundtrip", "--action", action_path]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert len(calls) == 1


def test_closed_complexes_are_not_capped_as_documents(tmp_path, capsys):
    # the quotient and the reconstruction of the trivial action on an
    # 11-simplex are built from all 4,095 faces, not from one maximal simplex
    action = trivial_action(build_complex([list(range(12))]))
    action_path = write(tmp_path, "simplex.json", action_to_doc(action))
    triple_path = str(tmp_path / "triple.json")
    assert main(["compress", "--action", action_path, "--out", triple_path]) == 0
    rec_path = str(tmp_path / "rec.json")
    assert main(["reconstruct", "--triple", triple_path, "--out", rec_path]) == 0
    assert len(json.loads(Path(rec_path).read_text())["labels"]) == 4095
    assert main(["roundtrip", "--action", action_path]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_empty_complex_compresses_and_reconstructs(tmp_path, capsys):
    action_path = write(
        tmp_path,
        "empty.json",
        {"complex": {"vertices": 0, "maximal_simplices": []}, "group": {"generators": {}}},
    )
    triple_path = str(tmp_path / "triple.json")
    assert main(["compress", "--action", action_path, "--out", triple_path]) == 0
    assert "ratio 1.000" in capsys.readouterr().err
    rec_path = str(tmp_path / "rec.json")
    assert main(["reconstruct", "--triple", triple_path, "--out", rec_path]) == 0
    rec = json.loads(Path(rec_path).read_text())
    assert rec == {"complex": {"vertices": 0, "maximal_simplices": []}, "labels": []}


def test_triple_with_a_certificate_still_parses(tmp_path, capsys):
    # triples once carried the orbit map and the lifts as "certificate"; a
    # triple in that format parses, the key is ignored, and it rebuilds the same
    action = subdivide_action(klein_four_bowtie_action(), 2)
    action_path = write(tmp_path, "action.json", action_to_doc(action))
    triple_path = str(tmp_path / "triple.json")
    assert main(["compress", "--action", action_path, "--out", triple_path]) == 0
    doc = json.loads(Path(triple_path).read_text())
    assert sorted(doc) == ["group", "quotient", "stabilizers", "transfers"]
    _, orbit_map, lifts = quotient(action)
    doc["certificate"] = {"p": orbit_map, "lift": lifts}
    old_path = write(tmp_path, "old.json", doc)
    assert main(["validate-triple", "--triple", old_path]) == 0
    rebuilt = {}
    for name, path in (("new", triple_path), ("old", old_path)):
        rebuilt[name] = tmp_path / f"rebuilt-{name}.json"
        assert main(["reconstruct", "--triple", path, "--out", str(rebuilt[name])]) == 0
    assert rebuilt["old"].read_bytes() == rebuilt["new"].read_bytes()
    capsys.readouterr()


def test_compress_irregular_exits_1(tmp_path, capsys):
    bowtie = write(tmp_path, "bowtie.json", action_to_doc(klein_four_bowtie_action()))
    assert main(["compress", "--action", bowtie]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["condition"] == "pointwise-fix"


def test_corrupted_triple_exits_1(tmp_path, capsys):
    action = subdivide_action(c3_triangle_action(), 2)
    action_file = write(tmp_path, "action.json", action_to_doc(action))
    triple_path = str(tmp_path / "triple.json")
    main(["compress", "--action", action_file, "--out", triple_path])
    capsys.readouterr()
    doc = json.loads(Path(triple_path).read_text())
    # list a left-out (identity) transfer below a triangle as a non-identity
    # element, so its two paths to a shared vertex class disagree
    triple = triple_from_doc(doc)
    top = next(y for y, s in enumerate(triple.quotient.simplices) if len(s) == 3)
    mid = triple.quotient.faces_codim1[top][0]
    assert triple.transfers[top, mid] == 0
    doc["transfers"].append([top, mid, 1])
    broken = write(tmp_path, "broken.json", doc)
    assert main(["reconstruct", "--triple", broken]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert any(f"paths {top} >= {mid} >= " in v for v in out["violations"])


def test_oversized_group_exits_2(tmp_path, capsys, hexagon_action_file):
    # S_7 (order 5040) permuting the vertices of a 6-simplex
    simplex = complex_to_doc(build_complex([list(range(7))]))
    generators = {"swap": [1, 0, 2, 3, 4, 5, 6], "cycle": [1, 2, 3, 4, 5, 6, 0]}
    doc = {"complex": simplex, "group": {"generators": generators}}
    assert main(["check-regular", "--action", write(tmp_path, "s7.json", doc)]) == 2
    assert "$.group.generators:" in capsys.readouterr().err

    triple_path = str(tmp_path / "triple.json")
    assert main(["compress", "--action", hexagon_action_file, "--out", triple_path]) == 0
    with open(triple_path) as fh:
        doc = json.load(fh)
    doc["group"]["order"] = 5000
    assert main(["reconstruct", "--triple", write(tmp_path, "big.json", doc)]) == 2
    assert "$.group.order:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, path, where",
    [
        ("triple", ("group", "order"), "$.group.order"),
        ("triple", ("group", "generators", 0, 0), "$.group.generators[0]"),
        ("triple", ("quotient", "vertices"), "$.quotient.vertices"),
        ("triple", ("quotient", "maximal_simplices", 0, 1), "$.quotient.maximal_simplices"),
        ("triple", ("stabilizers", 0, 0), "$.stabilizers[0]"),
        ("triple", ("transfers", 0, 2), "$.transfers[0]"),
        ("action", ("complex", "vertices"), "$.complex.vertices"),
        ("action", ("group", "generators", "g0", 0), "$.group.generators.g0"),
    ],
)
def test_booleans_are_not_integers(tmp_path, capsys, hexagon_action_file, kind, path, where):
    # JSON true equals 1 to Python; it must not pass where an integer is expected
    if kind == "triple":
        source = str(tmp_path / "triple.json")
        assert main(["compress", "--action", hexagon_action_file, "--out", source]) == 0
        command = ["validate-triple", "--triple"]
    else:
        source = hexagon_action_file
        command = ["check-regular", "--action"]
    with open(source) as fh:
        doc = json.load(fh)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = True
    assert main(command + [write(tmp_path, "bad.json", doc)]) == 2
    assert f"error: {where}:" in capsys.readouterr().err


def test_negative_times_exits_2(tmp_path, capsys, hexagon_action_file):
    with pytest.raises(SystemExit) as exc:
        main(["subdivide", "--action", hexagon_action_file, "--times", "-1"])
    assert exc.value.code == 2
    assert "--times" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys, hexagon_action_file):
    out = str(tmp_path / "missing-dir" / "triple.json")
    assert main(["compress", "--action", hexagon_action_file, "--out", out]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quotient", "compress", "roundtrip"])
def test_unwritable_out_of_an_irregular_action_exits_2(tmp_path, capsys, command):
    bowtie = write(tmp_path, "bowtie.json", action_to_doc(klein_four_bowtie_action()))
    out = str(tmp_path / "missing-dir" / "report.json")
    assert main([command, "--action", bowtie, "--out", out]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_bench_csv(tmp_path, capsys):
    assert main(["bench", "--family", "cycle", "--orders", "2,3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("fixture,k,n,")
    assert len([l for l in lines if not l.startswith("#")]) == 3
    assert any(l.startswith("# exponent,reconstruct") for l in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["--orders", "0"],
        ["--orders=-3"],
        ["--orders", ""],
        ["--orders", "2,2"],
        ["--family", "simplex-rotation", "--orders", "2"],
        ["--repeats", "0"],
        ["--repeats=-5"],
    ],
)
def test_bench_rejects_bad_sizes(argv, capsys):
    try:
        code = main(["bench", *argv])
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "--orders" in err or "--repeats" in err


def run_cli(argv, address_space=1 << 30):
    """Run the CLI in a fresh process with 1 GiB of address space, the bytes
    given, or no limit for None."""
    src = str(Path(equicompress.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "equicompress.cli", *argv],
        env=env,
        preexec_fn=None if address_space is None else limit_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_oversized_complex_exits_2_before_allocating(tmp_path):
    # a 26-vertex simplex has 2^26 - 1 faces; building the closure in 1 GiB of
    # address space would end in a MemoryError instead
    doc = {
        "complex": {"vertices": 26, "maximal_simplices": [list(range(26))]},
        "group": {"generators": {}},
    }
    result = run_cli(["check-regular", "--action", write(tmp_path, "big.json", doc)])
    assert result.returncode == 2, result.stderr
    assert "$.complex.maximal_simplices:" in result.stderr


def test_oversized_subdivision_exits_2_before_listing_chains(tmp_path):
    # the 11-simplex (4,095 faces) is admitted, but its subdivision has one
    # chain of faces per ordered set partition of each face's vertices
    path = write(tmp_path, "simplex.json", complex_to_doc(build_complex([list(range(12))])))
    result = run_cli(["subdivide", "--complex", path, "--times", "1"])
    assert result.returncode == 2, result.stderr
    count = subdivision_size(build_complex([list(range(12))]))
    assert f"--times: subdivision of {count} simplices exceeds the maximum" in result.stderr


def test_table_budget_exits_2_before_allocating(tmp_path):
    # C_4096 rotating a 16,384-cycle passes the order cap and the complex cap,
    # but its closure (4096 permutations of 16,384 points) would end in a
    # MemoryError in 1 GiB
    n = 16_384
    doc = {
        "complex": complex_to_doc(cycle_complex(n)),
        "group": {"generators": {"shift": [(v + 4) % n for v in range(n)]}},
    }
    result = run_cli(["check-regular", "--action", write(tmp_path, "big.json", doc)])
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "$.group.generators:" in result.stderr
    assert "exceeds the maximum of 33554432 table entries" in result.stderr


def test_roundtrip_of_a_large_group_holds_no_table_per_element(tmp_path):
    # C_2048 rotating an 8192-cycle: a table of every element's simplex images
    # (2048 x 16,384 entries) ends in a MemoryError in 256 MiB of address
    # space, the action from its generator's rows passes
    n = 8192
    doc = {
        "complex": complex_to_doc(cycle_complex(n)),
        "group": {"generators": {"shift": [(v + 4) % n for v in range(n)]}},
    }
    out = str(tmp_path / "report.json")
    path = write(tmp_path, "big.json", doc)
    result = run_cli(["roundtrip", "--action", path, "--out", out], address_space=256 << 20)
    assert result.returncode == 0, result.stderr
    assert json.loads(Path(out).read_text())["passed"] is True


def test_subdivision_of_a_large_group_holds_no_vertex_table_per_element(tmp_path):
    # C_2048 rotating an 8192-cycle: composing every element's images of the
    # subdivision's 16,384 vertices ends in a MemoryError in 256 MiB of
    # address space, the check on the stabilizers passes
    n = 8192
    doc = {
        "complex": complex_to_doc(cycle_complex(n)),
        "group": {"generators": {"shift": [(v + 4) % n for v in range(n)]}},
    }
    path = write(tmp_path, "big.json", doc)
    outputs = {}
    for name, address_space in (("limited", 256 << 20), ("unlimited", None)):
        outputs[name] = tmp_path / f"{name}.json"
        result = run_cli(
            ["subdivide", "--action", path, "--times", "1", "--out", str(outputs[name])],
            address_space=address_space,
        )
        assert result.returncode == 0, result.stderr
    assert outputs["limited"].read_bytes() == outputs["unlimited"].read_bytes()


def test_oversized_reconstruction_exits_2_before_listing_labels(tmp_path):
    # 2,048 isolated vertex classes with trivial stabilizers under C_4096: a
    # small triple whose reconstruction has 2,048 x 4,096 vertices; listing
    # them would end in a MemoryError in 1 GiB
    n = 4096
    doc = {
        "group": {"order": n, "generators": [[(h + 1) % n for h in range(n)]]},
        "quotient": {"vertices": 2048, "maximal_simplices": []},
        "stabilizers": [[0]] * 2048,
        "transfers": [],
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))  # 27.7 KB
    result = run_cli(["reconstruct", "--triple", str(path)])
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert (
        "error: $.stabilizers: reconstruction of 8388608 simplices exceeds the maximum 262144"
        in result.stderr
    )


def test_orbit_budget_of_an_induced_action_exits_2(tmp_path, monkeypatch, capsys):
    # the antipodal hexagon action permutes 6 vertices, 2 x 6 entries in its
    # closure, in 6 orbits; its subdivision's 24 simplices fall into 12, 2 x 12
    monkeypatch.setattr(groups, "MAX_TABLE_ENTRIES", 12)
    path = write(tmp_path, "hexagon.json", action_to_doc(hexagon_antipodal_action()))
    assert main(["check-regular", "--action", path]) == 0
    capsys.readouterr()
    assert main(["subdivide", "--action", path, "--times", "1"]) == 2
    err = capsys.readouterr().err
    assert (
        "--times: stabilizers of 12 orbits under a group of order 2 "
        "exceed the maximum of 12 table entries" in err
    )


def test_induced_action_within_the_orbit_budget_subdivides(tmp_path, monkeypatch, capsys):
    # C_4 rotating a 16-cycle: its subdivision permutes 32 vertices, 4 x 32
    # entries over the budget of 100, but its 64 simplices fall into 16
    # orbits, 4 x 16 entries within it
    monkeypatch.setattr(groups, "MAX_TABLE_ENTRIES", 100)
    path = write(tmp_path, "cycle.json", action_to_doc(cycle_rotation_action(4)))
    out = tmp_path / "sd1.json"
    assert main(["subdivide", "--action", path, "--times", "1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["group"]["generators"]["g0"]) == 32


def test_orbit_budget_exits_2_at_the_generators(tmp_path, monkeypatch, capsys):
    # a swap of vertices 0 and 1 fixing the edge {2, 3}: its closure holds
    # 2 x 4 vertex images, but the action's 7 simplices fall into 5 orbits,
    # each keeping a stabilizer and a coset map over the 2 group elements
    doc = {
        "complex": {"vertices": 4, "maximal_simplices": [[0, 2], [1, 2], [2, 3]]},
        "group": {"generators": {"swap": [1, 0, 2, 3]}},
    }
    path = write(tmp_path, "swap.json", doc)
    monkeypatch.setattr(groups, "MAX_TABLE_ENTRIES", 10)
    assert main(["compress", "--action", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(groups, "MAX_TABLE_ENTRIES", 8)
    assert main(["compress", "--action", path]) == 2
    err = capsys.readouterr().err
    assert (
        "$.group.generators: stabilizers of 5 orbits under a group of order 2 "
        "exceed the maximum of 8 table entries" in err
    )


DEEP = b"[" * 100_000 + b"]" * 100_000
# an integer literal past the 4,300 digits json.load converts
LONG_INTEGER = b'{"vertices": ' + b"9" * 5_000 + b', "maximal_simplices": []}'
NOT_UTF8 = b'{"group": {"generators": {}}, "\xff": 0}'
# C_2 acting on a point, its stabilizer listing each element twice
REPEATED_ELEMENTS = json.dumps(
    {
        "group": {"order": 2, "generators": [[1, 0]]},
        "quotient": {"vertices": 1, "maximal_simplices": []},
        "stabilizers": [[0, 0, 1, 1]],
        "transfers": [],
    }
).encode()


def _triple_over(group):
    """A one-vertex triple over a group document."""
    doc = {
        "group": group,
        "quotient": {"vertices": 1, "maximal_simplices": []},
        "stabilizers": [list(range(group["order"]))],
        "transfers": [],
    }
    return json.dumps(doc).encode()


# S_3 fixing 3, 4 and 5: it closes to the stated order but is not regular
NOT_REGULAR = _triple_over({"order": 6, "generators": [[1, 2, 0, 3, 4, 5], [1, 0, 2, 3, 4, 5]]})
# rows generating C_2, of a group stated to have order 4
SMALLER_GROUP = _triple_over({"order": 4, "generators": [[1, 0, 3, 2]]})


@pytest.mark.parametrize(
    "argv, content",
    [
        (["check-regular", "--action"], b"5"),
        (["check-regular", "--action"], b"null"),
        (["check-regular", "--action"], NOT_UTF8),
        (["validate-triple", "--triple"], NOT_UTF8),
        (["check-regular", "--action"], DEEP),
        (["reconstruct", "--triple"], DEEP),
        (["reconstruct", "--triple"], REPEATED_ELEMENTS),
        (["check-regular", "--action"], LONG_INTEGER),
        (["reconstruct", "--triple"], LONG_INTEGER),
        (["reconstruct", "--triple"], NOT_REGULAR),
        (["validate-triple", "--triple"], SMALLER_GROUP),
        # C_4097 rotating a wheel: the closure passes the order cap
        (["bench", "--family", "simplex-rotation", "--orders", "4097"], None),
        (["subdivide"], None),
    ],
    ids=[
        "action-number",
        "action-null",
        "action-not-utf8",
        "triple-not-utf8",
        "action-deep",
        "triple-deep",
        "triple-repeated-stabilizer-element",
        "action-long-integer",
        "triple-long-integer",
        "triple-group-not-regular",
        "triple-group-smaller-than-its-order",
        "bench-order-cap",
        "subdivide-no-input",
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, argv, content):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [*argv, str(path)]
    result = run_cli(argv)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def test_stabilizer_count_is_checked_before_the_group_is_built(tmp_path, capsys, monkeypatch):
    # a C_4096 triple listing two stabilizers for its one class
    doc = json.loads(_triple_over({"order": 4096, "generators": [[*range(1, 4096), 0]]}))
    doc["stabilizers"].append([0])
    path = write(tmp_path, "triple.json", doc)

    def refuse(*_):
        raise AssertionError("the group was built before the stabilizer count was checked")

    monkeypatch.setattr(cog, "group_from_doc", refuse)
    for command in ("validate-triple", "reconstruct"):
        assert main([command, "--triple", path]) == 2
        assert capsys.readouterr().err.startswith("error: $.stabilizers: ")


def test_reconstruct_of_a_triple_breaking_the_local_group_law_exits_1(tmp_path, capsys):
    # a shrunken stabilizer keeps every containment but would double a fiber,
    # so two labels would collapse onto one vertex set during assembly; the
    # local-group law refuses it first, with the class and an extra element
    triple = compress(subdivide_action(klein_four_bowtie_action(), 2))
    y = next(
        i
        for i, s in enumerate(triple.stabilizers)
        if len(triple.quotient.simplices[i]) == 2 and len(s) == 2
    )
    triple.stabilizers[y] = triple.group.subgroup([0])
    path = write(tmp_path, "shrunk.json", triple_to_doc(triple))
    assert main(["validate-triple", "--triple", path]) == 1
    report = capsys.readouterr().out
    assert main(["reconstruct", "--triple", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == report
    assert captured.err == ""
    assert json.loads(report) == {
        "valid": False,
        "violations": [
            f"stabilizer of class {y} lacks element 1, which every transfer "
            f"of {y} conjugates into the facet's stabilizer"
        ],
    }


# Any JSON value a mutation can put in place of a field.  Integers stay small or
# lie past every cap, so a mutant never asks for a valid but large computation.
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.integers(-2, 40),
    st.sampled_from([2**18 + 1, 2**40, 1.0, 0.5]),
    st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _mutate(data, doc):
    """Replace, drop or add one field at a random depth of a JSON document."""
    parent, key = None, None
    node = doc
    for _ in range(data.draw(st.integers(0, 4))):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    value = data.draw(_JSON_VALUES)
    operation = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if parent is None:
        return value if operation == "replace" else doc
    if operation == "replace":
        parent[key] = value
    elif operation == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=3))] = value
    else:
        parent.append(value)
    return doc


_FUZZ_ACTION = action_to_doc(hexagon_antipodal_action())
_FUZZ_TRIPLE = triple_to_doc(compress(hexagon_antipodal_action()))
# the Klein four-group on the subdivided bow-tie: stabilizers of order 1, 2
# and 4, so orbits, stabilizers and coset maps come from Schreier generators,
# conjugation and cosets rather than from free orbits alone
_FUZZ_STABILIZED_ACTION = action_to_doc(subdivide_action(klein_four_bowtie_action()))
_FUZZ_STABILIZED_TRIPLE = triple_to_doc(compress(subdivide_action(klein_four_bowtie_action())))
# a triangle's complex of groups: most transfers are the identity and left out
# of its document; the parent-format copy lists every one of them
_FUZZ_TRIANGLE = compress(subdivide_action(c3_triangle_action(), 2))
_FUZZ_TRIANGLE_TRIPLE = triple_to_doc(_FUZZ_TRIANGLE)
_FUZZ_TRIANGLE_TRIPLE_EXPLICIT = {
    **_FUZZ_TRIANGLE_TRIPLE,
    "transfers": [[p, c, g] for (p, c), g in sorted(_FUZZ_TRIANGLE.transfers.items())],
}
# a triple whose elements are numbered in no closure's breadth-first order
_FUZZ_RENUMBERED_TRIPLE = renumbered_s3_triangle()[2]
# an involution on a graph violating orbit closure, so mutations reach the
# per-orbit violation paths
_FUZZ_IRREGULAR_ACTION = action_to_doc(
    GroupAction.from_generator_perms(
        [[3, 5, 4, 0, 2, 1]],
        build_complex([[0, 1], [0, 4], [3, 4], [2, 3], [0, 2], [0, 5], [1, 3], [3, 5]], 6),
    )
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_cleanly(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("fuzz")
    action_commands = [["check-regular", "--action"], ["compress", "--action"]]
    triple_commands = [["validate-triple", "--triple"], ["reconstruct", "--triple"]]
    for base, commands in (
        (_FUZZ_ACTION, action_commands),
        (_FUZZ_TRIPLE, triple_commands),
        (_FUZZ_STABILIZED_ACTION, [*action_commands, ["roundtrip", "--action"]]),
        (_FUZZ_STABILIZED_TRIPLE, triple_commands),
        (_FUZZ_TRIANGLE_TRIPLE, triple_commands),
        (_FUZZ_TRIANGLE_TRIPLE_EXPLICIT, triple_commands),
        (_FUZZ_RENUMBERED_TRIPLE, triple_commands),
        (_FUZZ_IRREGULAR_ACTION, action_commands),
    ):
        doc = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
        path = write(directory, "doc.json", doc)
        for command in commands:
            out = str(directory / "out.json")
            assert main([*command, path, "--out", out]) in (0, 1, 2), (command, doc)


def test_every_cli_artifact_is_the_sorted_compact_json_text(tmp_path, monkeypatch, capsys):
    written = []
    dump = cli._dump

    def recording_dump(doc, path):
        dump(doc, path)
        written.append((doc, path))

    monkeypatch.setattr(cli, "_dump", recording_dump)
    fixtures = [*regular_fixtures().values(), *(a for a, _ in irregular_fixtures().values())]
    for i, action in enumerate(fixtures):
        action_file = write(tmp_path, f"action{i}.json", action_to_doc(action))
        out = str(tmp_path / f"out{i}")
        runs = [
            ["check-regular", "--action", action_file],
            ["quotient", "--action", action_file],
            ["compress", "--action", action_file],
            ["subdivide", "--action", action_file, "--times", "1"],
        ]
        if i < len(regular_fixtures()):
            triple = out + "-compress.json"
            runs += [
                ["validate-triple", "--triple", triple],
                ["reconstruct", "--triple", triple],
                ["roundtrip", "--action", action_file],
            ]
        for argv in runs:
            assert main([*argv, "--out", f"{out}-{argv[0]}.json"]) in (0, 1)
    capsys.readouterr()
    assert len(written) == 7 * len(regular_fixtures()) + 4 * len(irregular_fixtures())
    for doc, path in written:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert Path(path).read_text() == text + "\n"
