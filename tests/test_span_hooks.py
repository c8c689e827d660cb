"""Every function the benchmark's tracer wraps still exists under its name.

``perfbench/spans.py`` wraps faaslab functions in place, found by (module,
attribute path). A renamed or deleted hook point would otherwise show only
as an ``unwrapped`` entry of a traced benchmark run. This test resolves each
path with ``importlib`` and ``getattr`` and patches nothing.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_hook_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, path, _, _ in spans.LAYERS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert spans.LAYERS and missing == []
