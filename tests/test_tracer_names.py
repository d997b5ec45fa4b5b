"""Every library name the benchmark's tracer rebinds must exist.

``perfbench/tracer.py`` wraps functions by ``(module, attribute)`` with
``getattr``; a renamed function would only show up as a crash of a traced
benchmark run.  The tracer file is loaded read-only, by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entries():
    tracer = _tracer()
    return tracer.SPANNED + tracer.COUNTED + tracer.CALLS_ONLY


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: f"{e[0]}.{e[1]}")
def test_traced_name_resolves(entry):
    module_name, attr = entry[0], entry[1]
    module = importlib.import_module(f"idealkit.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
