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


def _run_and_check(op):
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=op.args, prog_name="outgrowth", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, op.label
    op.check(out.getvalue())


def test_rtt_workload_operations_pass_their_checks(tmp_path, workloads):
    for op in workloads.rtt(0, tmp_path):
        _run_and_check(op)


def test_spectral_analyze_operations_pass_their_checks(tmp_path, workloads):
    # the largest turn tables the benchmark emits
    ops = [op for op in workloads.spectral(0, tmp_path) if op.args[:1] == ["analyze"]]
    assert [op.label for op in ops] == [f"analyze chord{n}" for n in (25, 50, 100)] + [
        f"analyze tower{n}" for n in (50, 100)
    ]
    for op in ops:
        _run_and_check(op)


def test_spectral_library_operations_pass_their_checks(tmp_path, workloads):
    # the benchmark's only way into MarkingInverter: find_r_legal_hyperbolic on chord roses
    ops = [op for op in workloads.spectral(0, tmp_path) if op.library is not None]
    assert [op.label for op in ops] == [f"find_r_legal_hyperbolic chord{n}" for n in (25, 50, 100)]
    for op in ops:
        op.check(op.library())


@pytest.mark.parametrize(
    "command, labels",
    [
        ("sweep", [f"sweep chord{n}" for n in (25, 50, 100)] + [f"sweep tower{n}" for n in (50, 100)]
         + ["sweep tower110 default grid"]),
        ("displacement", [f"displacement chord{n}" for n in (25, 50, 100)]),
        ("bound", [f"bound chord{n}" for n in (25, 50, 100)] + [f"bound tower{n}" for n in (50, 100)]),
    ],
)
def test_spectral_command_operations_pass_their_checks(tmp_path, workloads, command, labels):
    ops = [op for op in workloads.spectral(0, tmp_path) if op.args[:1] == [command]]
    assert [op.label for op in ops] == labels
    for op in ops:
        _run_and_check(op)
