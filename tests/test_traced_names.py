"""The library still defines every name the benchmark's layer tracer wraps.

``perfbench/layertrace.py`` wraps public chanrec functions by name and reports
a name the library no longer defines as a missing layer, without failing.  A
traced run then lacks per-layer metrics that ``BENCHMARK.json`` lists, and
nothing but the benchmark would show it.  Such a name can go only together
with its entry in the tracer's ``LAYERS`` and in ``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_layertrace():
    path = ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name():
    assert load_layertrace().Tracer().missing == []


def test_tracer_covers_every_listed_per_layer_metric():
    layertrace = load_layertrace()
    # run.py adds the two trace.* metrics itself
    names = set(layertrace.layer_metrics(layertrace.Tracer()))
    names |= {"trace.overhead_frac", "trace.traced_ms"}
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in listed if m["name"] not in names] == []
