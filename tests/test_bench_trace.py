"""The benchmark's trace mode wraps package names from outside the package;
a rename in the package must fail here, not only in the benchmark."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them():
    tracer = _load_spans().Tracer()
    # entering raises AttributeError if a wrapped name is gone
    with tracer.installed():
        patched = list(tracer._patched)
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
