"""The library names that the benchmark's traced run wraps by name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_span_targets_resolve():
    # bench/spans.py rebinds each (module, attribute) of TARGETS, so a
    # renamed or deleted one breaks the traced run; it fails here first
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, attr, _ in spans.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:  # a class attribute, wrapped in the class's __dict__
            cls_name, member = attr.split(".")
            assert member in vars(getattr(module, cls_name)), (modname, attr)
        else:
            assert callable(getattr(module, attr, None)), (modname, attr)
