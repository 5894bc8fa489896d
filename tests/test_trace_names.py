"""Every span the benchmark traces (perfbench/spans.py) names a live lvrc function."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.LAYERS.items():
        owner = importlib.import_module(f"lvrc.{layer}")
        for name in names:
            cls_name, _, meth = name.rpartition(".")
            # the tracer wraps a method on its class and a function at its module binding
            found = (meth in vars(getattr(owner, cls_name, object)) if cls_name
                     else callable(getattr(owner, name, None)))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []
