"""perfbench/tracing.py wraps frqme functions by name; each must still exist.

The tracer looks every target up with getattr at install time, so a
deleted or renamed function would only break the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (module, name)
        for module, names in tracing.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"frqme.{module}"), name, None))
    ]
    assert missing == []
