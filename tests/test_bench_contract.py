"""The names the benchmark harness wraps must exist in the package.

``bench/tracing.py`` patches layer boundaries by (module, attribute) and
reads the tables ``draw_potentials`` returns; a rename in the package would
otherwise surface only as a benchmark crash.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from gibbslab import Hypergraph, build_model
from gibbslab.partition import draw_potentials

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_wrap_points_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.WRAP_POINTS
    for module_name, attr, _, _ in tracing.WRAP_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    harness = importlib.import_module("gibbslab.harness")
    assert callable(harness.ProcessPoolExecutor)
    model = build_model("ksat", k=2, beta=0.5)
    draws = draw_potentials(model, Hypergraph(3, 2, np.array([[0, 1], [1, 2]])), 0)
    assert draws.node_tables.shape == (3, 2)
    assert draws.edge_tables.shape == (2, 2, 2)
