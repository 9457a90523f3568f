"""Benchmark of the ``outgrowth`` command line and library, end to end and per layer.

    python3 perfbench/run.py --workload {orbit,spectral,rtt,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``./src``).  The workload's inputs are generated from the seed under
``.bench_build/perfbench``; operations then run one at a time, in whole
rounds over the workload's fixed operation list, until S seconds have
passed, and every output is checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are ``round_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` untraced and traced rounds alternate and
the metrics are the per-layer figures of the traced rounds (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
HERE = Path(__file__).resolve().parent

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import outgrowth.cli; print(time.perf_counter() - t)"
)


def fresh_import(env: dict) -> tuple[float, float]:
    """(wall seconds of a fresh interpreter importing outgrowth.cli, seconds of the import alone)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0, float(proc.stdout)


def bare_interpreter(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


class InProcess:
    """Runs operations through the click entry point inside this process."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import outgrowth.cli

        self.main = outgrowth.cli.main
        self.tracer = tracer.Tracer()
        self._first_span: int | None = None

    def start_round(self, traced: bool) -> None:
        if traced:
            self._first_span = len(self.tracer)
            self.tracer.install()

    def finish_round(self) -> dict[str, float] | None:
        if self._first_span is None:
            return None
        self.tracer.uninstall()
        layers = self.tracer.summary(self._first_span, len(self.tracer))
        self._first_span = None
        return layers

    def save_spans(self, work: Path) -> None:
        if len(self.tracer):
            self.tracer.save(work / "spans.npz")

    def __call__(self, op: workloads.Op) -> tuple[int, object]:
        if op.library is not None:
            try:
                return 0, op.library()
            except Exception:
                return 1, traceback.format_exc()
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=op.args, prog_name="outgrowth", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error reaches the user as a traceback, exit 1
                traceback.print_exc(file=err)
                code = 1
        return code, out.getvalue() if code == 0 else err.getvalue() or out.getvalue()


class FreshInterpreter:
    """Runs each operation as ``python -m outgrowth.cli``; traced, through traced_cli.py."""

    def __init__(self, env: dict, spans_dir: Path):
        self.env = env
        self.spans_dir = spans_dir
        self._spans: list[Path] | None = None
        self._count = 0

    def start_round(self, traced: bool) -> None:
        if traced:
            self.spans_dir.mkdir(exist_ok=True)
            self._spans = []

    def finish_round(self) -> dict[str, float] | None:
        if self._spans is None:
            return None
        layers = []
        for path in self._spans:
            with np.load(path) as spans:
                layers.append(tracer.summarize(spans))
        self._spans = None
        return tracer.add_summaries(layers)

    def save_spans(self, work: Path) -> None:
        """Each traced command has already written its own spans."""

    def __call__(self, op: workloads.Op) -> tuple[int, object]:
        if self._spans is None:
            cmd = [sys.executable, "-m", "outgrowth.cli", *op.args]
        else:
            self._count += 1
            self._spans.append(self.spans_dir / f"command{self._count}.npz")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(self._spans[-1]), *op.args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout if proc.returncode == 0 else proc.stderr or proc.stdout


class Round:
    def __init__(self):
        self.seconds = 0.0
        self.op_seconds: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.layers: dict[str, float] | None = None


def run_round(ops: list[workloads.Op], execute, traced: bool) -> Round:
    """One pass over the operation list; each output is checked outside the timed region."""
    rnd = Round()
    execute.start_round(traced)
    for op in ops:
        gc.collect()
        t0 = time.perf_counter()
        code, output = execute(op)
        dt = time.perf_counter() - t0
        rnd.seconds += dt
        rnd.op_seconds.append(dt)
        if code != 0:
            rnd.failed += 1
            print(f"# failed: {op.label} (exit {code}): {failure_message(output)}", file=sys.stderr)
            continue
        try:
            op.check(output)
        except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
            rnd.wrong += 1
            print(f"# wrong answer: {op.label}: {exc!r}", file=sys.stderr)
    rnd.layers = execute.finish_round()
    return rnd


def failure_message(output: str) -> str:
    try:
        return json.loads(output)["report"]["error"]["message"]
    except (ValueError, KeyError, TypeError):
        lines = str(output).strip().splitlines()
        return lines[-1] if lines else ""


def verify_inputs(out_dir: Path) -> None:
    """Every generated document must parse and pass verify_representative before timing."""
    from outgrowth.document import parse_document
    from outgrowth.graph_map import verify_representative

    for path in sorted(out_dir.glob("*.gog")):
        doc = parse_document(path.read_text(), name=path.name)
        violations = verify_representative(doc.representative)
        if violations:
            raise SystemExit(f"generated document {path.name} fails verification: {violations[0]}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "outgrowth" / "cli.py").is_file():
        print(f"no outgrowth source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-trace{args.trace}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("OUTGROWTH_THREADS", None)  # sweep runs on one thread
    os.environ.pop("OUTGROWTH_THREADS", None)
    build = workloads.WORKLOADS[args.workload]

    # set-up: a cold interpreter importing the CLI, plus generating the inputs
    setup, import_s = [], []
    for _ in range(SETUP_REPEATS):
        wall, inner = fresh_import(env)
        t0 = time.perf_counter()
        ops = build(args.seed, inputs)
        setup.append(wall + time.perf_counter() - t0)
        import_s.append(inner)

    if args.workload == "cli":
        execute = FreshInterpreter(env, work / "spans")
    else:
        execute = InProcess(src)
        verify_inputs(inputs)

    # with --trace 1, untraced and traced rounds alternate, starting untraced
    rounds: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(rounds) > len(traced)
        rnd = run_round(ops, execute, trace_this)
        (traced if trace_this else rounds).append(rnd)
        print(f"# round {len(rounds) + len(traced)}{' (traced)' if trace_this else ''}: {rnd.seconds:.4f} s",
              file=sys.stderr)
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    execute.save_spans(work)

    all_rounds = rounds + traced
    attempted = len(ops) * len(all_rounds)
    failed = sum(r.failed for r in all_rounds)
    correct = not any(r.wrong for r in all_rounds)
    round_s = statistics.median(r.seconds for r in rounds)
    for i, op in enumerate(ops):
        med = statistics.median(r.op_seconds[i] for r in rounds)
        print(f"# {med:9.4f} s  {op.label}")
    if args.trace:
        metrics = {}
        for (name, unit) in tracer.metric_names():
            metrics[name] = metric(statistics.median(r.layers[name] for r in traced), unit)
        metrics["cli.import_s"] = metric(statistics.median(import_s), "s")
        metrics["python.startup_s"] = metric(
            statistics.median(bare_interpreter(env) for _ in range(SETUP_REPEATS)), "s")
        metrics["trace.overhead_s"] = metric(statistics.median(r.seconds for r in traced) - round_s, "s")
    else:
        if args.workload == "cli":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "round_s": metric(round_s, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        }
    print(f"# {len(rounds)} untraced and {len(traced)} traced rounds of {len(ops)} operations", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
