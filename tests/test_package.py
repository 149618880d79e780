import importlib.util
from pathlib import Path

import artifact
from artifact.cli import RunWriter


def test_every_export_resolves():
    missing = [name for name in artifact.__all__ if not hasattr(artifact, name)]
    assert missing == []


def test_benchmark_traced_names_resolve():
    """Every function and RunWriter method the benchmark's tracer wraps
    exists, so deleting one cannot break a traced benchmark run unnoticed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, functions in tracing.TRACED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"artifact.{module}"), name, None))
    ]
    missing += [m for m in tracing.CLI_OUTPUT_METHODS if not hasattr(RunWriter, m)]
    assert missing == []
