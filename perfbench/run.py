"""End-to-end benchmark of the equicompress command-line pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload large-group --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each sample takes one seeded input action through the commands a user runs,
calling ``equicompress.cli.main`` in this process on files in a scratch
directory:

    regularize   check-regular; if it exits 1, subdivide --times 2
    compress     compress on the regular action
    reconstruct  reconstruct on the triple
    roundtrip    roundtrip on the regular action

Every sample is checked; a failed check counts the sample as failed and the run
goes on.  With --trace 0 the run prints every end-to-end figure.  With
--trace 1 each sample runs once untraced and once traced, and the run prints
the per-layer figures with the tracing overhead; the spans are written to
.perfbench/traces/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics, where metrics holds the
figures that BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, action_doc, dump, f_vector

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

COMMANDS = ("regularize", "compress", "reconstruct", "roundtrip")
WARMUP_SAMPLES = 2  # checked but not timed: imports, caches and .pyc files settle
MIN_SAMPLES = 20  # timed samples per run, whatever --seconds says
DIGEST_SAMPLES = 8  # leading samples whose digests a run prints, whatever its length
ROUNDTRIP_PROPERTIES = (
    "well-defined",
    "injective",
    "surjective",
    "equivariant",
    "simplicial",
    "fiber-preserving",
)
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import equicompress.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t, cli.__file__)\n"
)


class SampleFailure(Exception):
    pass


def import_cli():
    """Import the command-line module from this checkout's sources only."""
    if not (SRC / "equicompress" / "cli.py").is_file():
        sys.exit(f"perfbench: no equicompress sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import equicompress.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "equicompress":
        sys.exit(f"perfbench: imported {cli.__file__}, not this checkout's sources")
    return cli


def measure_setup():
    """Seconds a fresh interpreter takes to import the CLI and build its parser."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, where = done.stdout.split()
    if Path(where).resolve().parent != SRC / "equicompress":
        sys.exit(f"perfbench: set-up imported {where}, not this checkout's sources")
    return float(seconds)


class Pipeline:
    """The user's command sequence on one sample, inside a scratch directory."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.workload = workload
        self.dir = Path(workdir)

    def path(self, name):
        return str(self.dir / f"{name}.json")

    def command(self, argv, expect, tracer=None):
        """Run one CLI command in-process; return its wall time in seconds."""
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - t0
        if code != expect:
            raise SampleFailure(
                f"{argv[0]} exited {code}, expected {expect}: {sink.getvalue()[-300:]}"
            )
        return elapsed

    def run(self, raw_text, tracer=None):
        """Time the four steps; return (seconds per step, artifact paths)."""
        raw = self.path("raw")
        Path(raw).write_text(raw_text)
        seconds = dict.fromkeys(COMMANDS, 0.0)
        artifacts = {"raw": raw, "check": self.path("check")}
        seconds["regularize"] = self.command(
            ["check-regular", "--action", raw, "--out", artifacts["check"]],
            0 if self.workload.raw_regular else 1,
            tracer,
        )
        regular = raw
        if not self.workload.raw_regular:
            regular = artifacts["regular"] = self.path("regular")
            seconds["regularize"] += self.command(
                ["subdivide", "--action", raw, "--times", "2", "--out", regular], 0, tracer
            )
        artifacts["triple"] = self.path("triple")
        seconds["compress"] = self.command(
            ["compress", "--action", regular, "--out", artifacts["triple"]], 0, tracer
        )
        artifacts["rebuilt"] = self.path("rebuilt")
        seconds["reconstruct"] = self.command(
            ["reconstruct", "--triple", artifacts["triple"], "--out", artifacts["rebuilt"]],
            0,
            tracer,
        )
        artifacts["roundtrip"] = self.path("roundtrip")
        seconds["roundtrip"] = self.command(
            ["roundtrip", "--action", regular, "--out", artifacts["roundtrip"]], 0, tracer
        )
        artifacts["regular"] = regular
        return seconds, artifacts

    def check(self, artifacts):
        """Correctness of one sample's outputs; return its sizes for the metrics."""
        w = self.workload
        if not w.raw_regular:
            self.command(
                ["check-regular", "--action", artifacts["regular"], "--out", self.path("check2")], 0
            )
        regular = json.loads(Path(artifacts["regular"]).read_text())
        triple = json.loads(Path(artifacts["triple"]).read_text())
        rebuilt = json.loads(Path(artifacts["rebuilt"]).read_text())
        report = json.loads(Path(artifacts["roundtrip"]).read_text())

        fx = f_vector(regular["complex"])
        simplices = sum(fx)
        if simplices != w.simplices:
            raise SampleFailure(f"regular action has {simplices} simplices, expected {w.simplices}")
        failed = [
            p for p in ROUNDTRIP_PROPERTIES if not report["properties"].get(p, {}).get("ok")
        ]
        if report.get("passed") is not True or failed:
            raise SampleFailure(f"roundtrip failed on {failed}")
        if f_vector(rebuilt["complex"]) != fx:
            raise SampleFailure("rebuilt complex has another f-vector than the regular action")
        order = triple["group"]["order"]
        stabilizers = triple["stabilizers"]
        if order != w.order or len(stabilizers) != w.classes:
            raise SampleFailure(f"triple has |G| = {order}, |Y| = {len(stabilizers)}")
        if any(order % len(s) for s in stabilizers) or sum(
            order // len(s) for s in stabilizers
        ) != simplices:
            raise SampleFailure("orbit-stabilizer identity sum [G : S(y)] = |X| fails")
        return {
            "simplices": simplices,
            "regular_bytes": os.path.getsize(artifacts["regular"]),
            "triple_bytes": os.path.getsize(artifacts["triple"]),
            "classes": len(stabilizers),
            "transfers": len(triple["transfers"]),
            "labels": len(rebuilt["labels"]),
        }


def digests(artifacts):
    """sha256 of every artifact file of one sample, by artifact name."""
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in sorted(artifacts.items())
    }


def summary_digest(items):
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def tail(values):
    """(value, percentile): the highest whole percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    pct = 100 * (n - 10) // n
    return ordered[max(1, math.ceil(pct * n / 100)) - 1], pct


def run_workload(cli, workload, seed, seconds, trace, workdir):
    pipeline = Pipeline(cli, workload, workdir)
    tracer = Tracer() if trace else None
    timed = []  # per timed sample: seconds per step, untraced
    setup_times = []  # one fresh interpreter before each timed sample, untraced runs
    traced_total = []  # per timed sample: traced pipeline seconds
    sizes = []
    sample_digests = {}
    errors = Counter()
    attempted = failed = 0
    start = time.perf_counter()
    sample = 0
    while sample < WARMUP_SAMPLES + MIN_SAMPLES or time.perf_counter() - start < seconds:
        attempted += 1
        if tracer is None and sample >= WARMUP_SAMPLES:
            setup_times.append(measure_setup())
        raw_text = dump(action_doc(workload, seed, sample))
        try:
            step_seconds, artifacts = pipeline.run(raw_text)
            size = pipeline.check(artifacts)
            sample_digests[sample] = digests(artifacts)
            if tracer is not None and sample >= WARMUP_SAMPLES:
                tracer.start_sample(sample)
                with tracer.installed():
                    traced_seconds, traced_artifacts = pipeline.run(raw_text, tracer)
                if digests(traced_artifacts) != sample_digests[sample]:
                    raise SampleFailure("traced artifacts differ from untraced ones")
                tracer.count("cog.triple_bytes", size["triple_bytes"])
                tracer.count("cog.transfers", size["transfers"])
                tracer.count("compress.classes", size["classes"])
                tracer.count("reconstruct.labels", size["labels"])
        except SampleFailure as exc:
            failed += 1
            errors[str(exc)] += 1
        except Exception:  # keep measuring; the sample counts as failed
            failed += 1
            errors[traceback.format_exc(limit=3)] += 1
        else:
            if sample >= WARMUP_SAMPLES:
                timed.append(step_seconds)
                sizes.append(size)
                if tracer is not None:
                    traced_total.append(sum(traced_seconds.values()))
        sample += 1
    for message, n in errors.most_common():
        print(f"FAILED x{n}: {message}", file=sys.stderr)
    print(f"failed_ratio = {failed / attempted} ({failed} of {attempted} samples)")

    name = f"{workload.name}-seed{seed}.json"
    (WORK / "digests").mkdir(exist_ok=True)
    (WORK / "digests" / name).write_text(json.dumps(sample_digests, indent=1) + "\n")
    first = {s: d for s, d in sample_digests.items() if s < DIGEST_SAMPLES}
    print(f"artifacts_sha256 (samples 0-{DIGEST_SAMPLES - 1}): {summary_digest(first)}")
    if not timed:
        return attempted, failed, None
    if tracer is None:
        return attempted, failed, end_to_end(timed, sizes, setup_times)
    tracer.write(str(WORK / "traces" / name), workload=workload.name, seed=seed)
    return attempted, failed, per_layer(tracer, timed, traced_total)


def end_to_end(timed, sizes, setup_times):
    """name -> (value, unit, note) of every end-to-end figure of an untraced run."""
    n = len(timed)
    out = {}
    for step in COMMANDS:
        values = [s[step] for s in timed]
        out[f"{step}_s.p50"] = (statistics.median(values), "s", f"p50 of {n} samples")
        value, pct = tail(values)
        out[f"{step}_s.tail"] = (value, "s", f"p{pct} of {n} samples")
    simplices = sum(s["simplices"] for s in sizes)
    out["pipeline_simplices_per_s"] = (
        simplices / sum(sum(t.values()) for t in timed), "simplices/s", f"{n} samples"
    )
    ratios = [s["triple_bytes"] / s["regular_bytes"] for s in sizes]
    out["triple_bytes_ratio"] = (statistics.median(ratios), "ratio", f"p50 of {n} samples")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["peak_rss_mb"] = (rss, "MB", "whole run")
    out["setup_s"] = (
        statistics.median(setup_times), "s", f"p50 of {len(setup_times)} fresh interpreters"
    )
    return out


def per_layer(tracer, timed, traced_total):
    samples = sorted({s for *_, s in tracer.spans})
    self_times = tracer.self_times()
    calls = tracer.calls()

    def median_of(table, key):
        return statistics.median(table.get(s, Counter())[key] for s in samples)

    first = {
        s: {**calls.get(s, {}), **tracer.counts.get(s, {})}
        for s in samples[:DIGEST_SAMPLES]
    }
    print(f"counts_sha256 (first {DIGEST_SAMPLES} traced samples): {summary_digest(first)}")
    metrics = {}
    for name in {r[0] for r in tracer.spans}:
        metrics[f"{name}.self_s"] = median_of(self_times, name)
        metrics[f"{name}.calls"] = median_of(calls, name)
    for name in {k for c in tracer.counts.values() for k in c}:
        metrics[name] = median_of(tracer.counts, name)
    untraced = statistics.median(sum(t.values()) for t in timed)
    metrics["trace.pipeline_s"] = untraced
    metrics["trace.overhead_s"] = statistics.median(
        traced - sum(t.values()) for t, traced in zip(timed, traced_total)
    )
    for hook in tracer.missing:
        print(f"untraced: equicompress.{hook} not found")
    return metrics


def report(spec_metrics, figures):
    """Print every figure; return the result's metrics, those of the spec."""
    for name, (value, unit, note) in figures.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    out = {}
    for m in spec_metrics:
        value, unit, _ = figures[m["name"]]
        if unit != m["unit"]:
            sys.exit(f"perfbench: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def run_all(args):
    """Every workload, one child process each, so memory figures stay separate."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {done.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        attempted, failed, result = run_workload(
            cli, workload, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        sys.exit("perfbench: no sample passed its checks")
    if args.trace:
        # a layer the workload never entered reads 0
        figures = {m["name"]: (result.get(m["name"], 0), m["unit"], "") for m in spec_metrics}
    else:
        figures = result
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report(spec_metrics, figures),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
