"""Benchmark operations pass their own checks, run in process."""

import contextlib
import io
from pathlib import Path

import pytest

from outgrowth.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports families by name
    import workloads

    return workloads


def test_rtt_workload_operations_pass_their_checks(tmp_path, workloads):
    for op in workloads.rtt(0, tmp_path):
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out):
            try:
                main.main(args=op.args, prog_name="outgrowth", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        assert code == 0, op.label
        op.check(out.getvalue())


def test_spectral_library_operations_pass_their_checks(tmp_path, workloads):
    # the benchmark's only way into MarkingInverter: find_r_legal_hyperbolic on chord roses
    ops = [op for op in workloads.spectral(0, tmp_path) if op.library is not None]
    assert [op.label for op in ops] == [f"find_r_legal_hyperbolic chord{n}" for n in (25, 50, 100)]
    for op in ops:
        op.check(op.library())
