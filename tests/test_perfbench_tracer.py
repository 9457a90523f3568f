"""The traced benchmark wraps package functions by name; renaming one must fail here."""

import importlib.util
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import outgrowth.cli  # noqa: F401  (the tracer wraps the command callbacks too)
from outgrowth import graph_map

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_layer():
    tracer = _load_tracer().Tracer()
    original = graph_map.stratify
    try:
        tracer.install()
        assert graph_map.stratify is not original
        graph_map.stratify(np.eye(2, dtype=int))
        assert len(tracer) == 1
    finally:
        tracer.uninstall()
    assert graph_map.stratify is original


def test_analyze_runs_the_traced_turn_layer():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        result = CliRunner().invoke(outgrowth.cli.main, ["analyze", "golden_ratio_rose", "--format", "json"])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    summary = tracer.summary(0, len(tracer))
    assert summary["legality.classify_turns.calls"] == 1
    assert summary["legality.classify_turns.turns"] == 10
