"""The benchmark tracer's hooks must all resolve against the program.

A hook whose target was renamed or deleted is skipped by the tracer, and the
per-layer metric it feeds silently reads 0.
"""

import importlib.util
from pathlib import Path

import equicompress.cli  # noqa: F401  (the tracer hooks the loaded modules)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    with tracer.installed():
        pass
    # the tracer still counts GroupAction.orb, which the program no longer has
    assert tracer.missing == ["actions.GroupAction.orb"]
