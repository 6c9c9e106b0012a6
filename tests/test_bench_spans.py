"""The per-layer tracer in bench/layers.py patches module attributes of
the package by name; every name it lists must exist, so that a refactor
that drops one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_traced_spans_resolve_on_the_package():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for modname, path in layers.SPANS:
        owner = importlib.import_module(f"compatflow.{modname}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{path}")
    assert layers.SPANS and not missing, missing
