"""Every per-layer metric BENCHMARK.json names must resolve in a traced run.

`perfbench/spans.py` wraps each public module-level function defined in a
layer module, and counts `toeplitz.FC` products through `__mul__` and
`__rmul__`; a metric naming anything else raises `KeyError` when a traced
run resolves it.  These tests only read the benchmark's files.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from tenfold import toeplitz

ROOT = Path(__file__).resolve().parent.parent


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _span_metrics():
    """(layer, function) of every `<layer>.<function>.calls|self_ms` metric;
    the tracer's own root span is not a layer function."""
    spans = _spans()
    out = []
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        parts = m["name"].split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_ms") \
                and ".".join(parts[:2]) != spans.ROOT:
            assert parts[0] in spans.LAYERS, m["name"]
            out.append(tuple(parts[:2]))
    return out


def test_per_layer_metrics_name_traced_functions():
    metrics = _span_metrics()
    assert len(metrics) >= 30
    for layer, name in metrics:
        mod = importlib.import_module(f"tenfold.{layer}")
        fn = vars(mod).get(name)
        assert not name.startswith("_") and inspect.isfunction(fn) \
            and fn.__module__ == mod.__name__, f"{layer}.{name}"


def test_fc_products_are_countable():
    assert {"__mul__", "__rmul__"} <= set(vars(toeplitz.FC))
