import importlib.util
import re
from pathlib import Path

import artifact
from artifact.cli import RunWriter


def test_version_matches_pyproject():
    """``artifact.__version__``, stamped into every CSV header and manifest,
    is the version the package is built with."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == artifact.__version__


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
