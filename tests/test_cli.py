import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import equicompress
from equicompress.actions import action_to_doc
from equicompress.cli import main
from equicompress.complexes import build_complex, complex_to_doc, subdivision_size
from equicompress.compress import compress
from equicompress.families import (
    cycle_complex,
    hexagon_antipodal_action,
    klein_four_bowtie_action,
    trivial_action,
    triangle_complex,
)


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


def test_quotient(tmp_path, capsys, hexagon_action_file):
    assert main(["quotient", "--action", hexagon_action_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotient"]["vertices"] == 3
    assert len(doc["p"]) == 12


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


def test_triple_with_a_certificate_still_parses(tmp_path, capsys):
    # triples once carried the orbit map and the lifts as "certificate"; a
    # triple in that format parses, the key is ignored, and it rebuilds the same
    action = klein_four_bowtie_action(subdivisions=2)
    action_path = write(tmp_path, "action.json", action_to_doc(action))
    triple_path = str(tmp_path / "triple.json")
    assert main(["compress", "--action", action_path, "--out", triple_path]) == 0
    doc = json.loads(Path(triple_path).read_text())
    assert sorted(doc) == ["group", "quotient", "stabilizers", "transfers"]
    _, certificate = compress(action)
    doc["certificate"] = {"p": certificate.orbit_map, "lift": certificate.lifts}
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


def test_corrupted_triple_exits_1(tmp_path, capsys, hexagon_action_file):
    triple_path = str(tmp_path / "triple.json")
    main(["compress", "--action", hexagon_action_file, "--out", triple_path])
    capsys.readouterr()
    doc = json.loads(Path(triple_path).read_text())
    doc["transfers"] = doc["transfers"][:-1]  # drop one relation
    broken = write(tmp_path, "broken.json", doc)
    assert main(["reconstruct", "--triple", broken]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False


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


def run_cli(argv):
    """Run the CLI in a fresh process with 1 GiB of address space."""
    src = str(Path(equicompress.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "equicompress.cli", *argv],
        env=env,
        preexec_fn=limit_memory,
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


DEEP = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b'{"group": {"generators": {}}, "\xff": 0}'


@pytest.mark.parametrize(
    "argv, content",
    [
        (["check-regular", "--action"], b"5"),
        (["check-regular", "--action"], b"null"),
        (["check-regular", "--action"], NOT_UTF8),
        (["validate-triple", "--triple"], NOT_UTF8),
        (["check-regular", "--action"], DEEP),
        (["reconstruct", "--triple"], DEEP),
        # C_4097 rotating a wheel: the closure passes the order cap
        (["bench", "--family", "simplex-rotation", "--orders", "4097"], None),
    ],
    ids=[
        "action-number",
        "action-null",
        "action-not-utf8",
        "triple-not-utf8",
        "action-deep",
        "triple-deep",
        "bench-order-cap",
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
