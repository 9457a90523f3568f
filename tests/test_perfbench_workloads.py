"""The benchmark's ``rtt`` operations exit 0 and pass their own checks, run in process."""

import contextlib
import io
from pathlib import Path

from outgrowth.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_rtt_workload_operations_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports families by name
    import workloads

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
