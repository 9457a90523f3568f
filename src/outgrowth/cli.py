"""Command line interface.

Every command takes an input document (a file path or the name of a
bundled example) and emits its report as human text, JSON records or a
flat CSV table.  Exit codes: 0 success, 2 validation failure, 3 numeric
non-convergence, 4 resource guard tripped.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click

from . import __version__
from .document import InputDocument, parse_document
from .dynamics import (
    bound_check,
    displacement_bracket,
    growth_report,
    relative_length_function,
    spectral_growth_rate,
    tree_length_function,
)
from .errors import InputError, NonConvergenceError, ResourceLimitError
from .examples import BUNDLED, bundled_text
from .free_product import Word, word_str
from .graph_map import verify_representative
from .document import parse_word
from .legality import classify_turns, verify_rtt, verify_train_track
from .graph_of_groups import MarkedMetricGraph

EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_RESOURCE = 4


def _load(input_arg: str) -> InputDocument:
    path = Path(input_arg)
    if path.exists():
        return parse_document(path.read_text(), name=path.name)
    if input_arg in BUNDLED:
        return parse_document(bundled_text(input_arg), name=input_arg)
    raise InputError(f"no such file or bundled example: '{input_arg}'")


def _require_verified(doc: InputDocument):
    if doc.representative is None:
        raise InputError("document has no [map] section")
    violations = verify_representative(doc.representative)
    if violations:
        raise InputError(
            "representative failed verification:\n  " + "\n  ".join(str(v) for v in violations)
        )
    return doc.representative


def _emit(fmt: str, command: str, record: dict, rows: list[dict], text: list[str]) -> None:
    header = f"outgrowth {__version__} {command}"
    if fmt == "json":
        click.echo(json.dumps({"version": header, "report": record}, indent=2, sort_keys=True))
    elif fmt == "csv":
        click.echo(f"# {header}")
        if rows:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
            click.echo(buf.getvalue().rstrip("\n"))
    else:
        click.echo(f"# {header}")
        for line in text:
            click.echo(line)


def _fail(fmt: str, command: str, err: Exception, code: int) -> None:
    record = {"error": {"type": type(err).__name__, "message": str(err), "exit_code": code}}
    if fmt == "json":
        click.echo(json.dumps({"version": f"outgrowth {__version__} {command}", "report": record}, indent=2, sort_keys=True))
    else:
        click.echo(f"error ({type(err).__name__}): {err}", err=True)
    sys.exit(code)


def _guarded(fmt: str, command: str, fn):
    try:
        fn()
    except ResourceLimitError as err:
        _fail(fmt, command, err, EXIT_RESOURCE)
    except NonConvergenceError as err:
        _fail(fmt, command, err, EXIT_NONCONVERGENCE)
    except InputError as err:
        _fail(fmt, command, err, EXIT_VALIDATION)


def _parse_sample(doc: InputDocument, sample: str | None) -> list[Word]:
    if sample:
        return [parse_word(doc.group, part.strip()) for part in sample.split(",") if part.strip()]
    return default_sample(doc)


def default_sample(doc: InputDocument) -> list[Word]:
    """A small deterministic hyperbolic sample: free letters and cross-factor products."""
    G = doc.group
    out = [G.free(j) for j in range(G.free_rank)]
    for i in range(len(G.factors) - 1):
        out.append(G.factor_element(i, 1) * G.factor_element(i + 1, 1))
    if G.factors and G.free_rank:
        out.append(G.factor_element(0, 1) * G.free(0))
    return out


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)


@click.group()
@click.version_option(__version__)
def main():
    """Growth, legality and displacement reports for free product automorphisms."""


@main.command()
@click.argument("input_arg", metavar="INPUT")
@format_option
def analyze(input_arg, fmt):
    """Strata, eigenvalues and the legality table of the representative."""

    def run():
        doc = _load(input_arg)
        rep = _require_verified(doc)
        dec = rep.strata()
        graph = doc.graph
        table = classify_turns(rep)
        strata_rows = []
        for s in dec.strata:
            strata_rows.append(
                {
                    "stratum": s.index,
                    "edges": " ".join(graph.edge_names[e] for e in s.edges),
                    "growing": s.growing,
                    "eigenvalue": s.eigenvalue,
                    "weights": ""
                    if s.weights is None
                    else " ".join(f"{graph.edge_names[e]}={s.weights[e]!r}" for e in sorted(s.weights)),
                }
            )
        turn_rows = [
            {
                "turn": turn_text(graph, entry.turn),
                "legal": entry.legal,
                "degenerate": entry.degenerate,
                "steps_to_degeneracy": entry.steps_to_degeneracy,
            }
            for entry in sorted(table, key=lambda e: e.turn)
        ]
        record = {
            "input": doc.name,
            "transition_matrix": dec.matrix.tolist(),
            "strata": strata_rows,
            "top_eigenvalue": dec.top_eigenvalue,
            "top_stratum": dec.top_stratum,
            "legality": turn_rows,
            "parameters": {"pf_tolerance": 1e-12, "pf_iteration_cap": 10**6},
        }
        text = [f"strata: {dec.count}  top eigenvalue: {dec.top_eigenvalue!r} at stratum {dec.top_stratum}"]
        for row in strata_rows:
            grow = "growing" if row["growing"] else "zero"
            text.append(
                f"  stratum {row['stratum']} ({grow}): edges [{row['edges']}] eigenvalue {row['eigenvalue']!r}"
            )
            if row["weights"]:
                text.append(f"    weights: {row['weights']}")
        legal_count = sum(1 for r in turn_rows if r["legal"])
        text.append(f"turns: {len(turn_rows)} ({legal_count} legal)")
        for r in turn_rows:
            status = "legal" if r["legal"] else (
                "degenerate" if r["degenerate"] else f"illegal in {r['steps_to_degeneracy']} step(s)"
            )
            text.append(f"  {r['turn']}: {status}")
        _emit(fmt, "analyze", record, strata_rows, text)

    _guarded(fmt, "analyze", run)


@main.command()
@click.argument("input_arg", metavar="INPUT")
@click.option("--element", required=True, help="word, e.g. \"a b'\" or \"P:1 a\"")
@click.option("--iterations", default=20, show_default=True)
@click.option("--length", "length_kind", type=click.Choice(["relative", "tree"]), default="tree", show_default=True)
@click.option("--guard", default=10**6, show_default=True, help="syllable guard for iterated words")
@format_option
def growth(input_arg, element, iterations, length_kind, guard, fmt):
    """Orbit length sequence and growth estimates for one element."""

    def run():
        doc = _load(input_arg)
        g = parse_word(doc.group, element)
        if length_kind == "relative":
            length = relative_length_function(doc.group)
        else:
            length = tree_length_function(doc.graph)
        rpt = growth_report(doc.automorphism, g, length, iterations, guard=guard)
        rows = [
            {
                "k": k,
                "length": rpt.values[k],
                "root_estimate": rpt.root_estimates[k - 1] if k >= 1 else None,
                "ratio": rpt.ratio_estimates[k - 1] if k >= 1 else None,
            }
            for k in range(iterations + 1)
        ]
        record = {"input": doc.name, **rpt.to_record()}
        text = [
            f"element {word_str(g)}  length {length_kind}  iterations {iterations}",
            f"estimate {rpt.estimate!r}  converged {rpt.converged}  note: {rpt.note}",
        ] + [
            f"  k={row['k']:3d}  l={row['length']!r}  root={row['root_estimate']!r}  ratio={row['ratio']!r}"
            for row in rows
        ]
        _emit(fmt, "growth", record, rows, text)

    _guarded(fmt, "growth", run)


def _grid(n_grid: str) -> list[float]:
    """Parse a comma-separated N grid; displacement_bracket rejects empty and bad values."""
    try:
        return [float(x) for x in n_grid.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"bad N grid '{n_grid}'")


def _lipschitz_rows(doc: InputDocument, rpt) -> list[dict]:
    return [
        {"N": n, "lipschitz": lip, "witness_edge": doc.graph.edge_names[w]}
        for n, lip, w in rpt.lipschitz
    ]


@main.command()
@click.argument("input_arg", metavar="INPUT")
@click.option("--n-grid", default="1,10,100,1000", show_default=True)
@click.option("--iterations", default=20, show_default=True)
@click.option("--sample", default=None, help="comma-separated words (default: a small built-in sample)")
@format_option
def displacement(input_arg, n_grid, iterations, sample, fmt):
    """Bracket the displacement between growth estimates and rescaled Lipschitz constants."""

    def run():
        doc = _load(input_arg)
        rep = _require_verified(doc)
        words = _parse_sample(doc, sample)
        rpt = displacement_bracket(rep, _grid(n_grid), iterations, words)
        rows = _lipschitz_rows(doc, rpt)
        record = {"input": doc.name, **rpt.to_record()}
        text = [
            f"bracket [{rpt.lower!r}, {rpt.upper!r}]  width {rpt.width!r}",
            f"top eigenvalue {rpt.top_eigenvalue!r} at stratum {rpt.top_stratum}; "
            f"upper side attained at N={rpt.upper_at!r}",
            f"Lipschitz constants non-increasing along grid: {rpt.monotone}",
        ] + [f"  N={row['N']!r}  Lip={row['lipschitz']!r}  edge {row['witness_edge']}" for row in rows] + [
            f"  growth {word_str(g.element)}: estimate {g.estimate!r} ({g.note})"
            for g in rpt.growth_reports
        ]
        _emit(fmt, "displacement", record, rows, text)

    _guarded(fmt, "displacement", run)


@main.command()
@click.argument("input_arg", metavar="INPUT")
@click.option("--rtt-bound", default=None, type=int, help="path bound for the injectivity check")
@format_option
def verify(input_arg, rtt_bound, fmt):
    """Train track and relative train track verdicts for the representative."""

    def run():
        doc = _load(input_arg)
        rep = _require_verified(doc)
        graph = doc.graph
        tt = verify_train_track(rep)
        rtt = verify_rtt(rep, rtt_bound)
        rows = [
            {
                "stratum": v.stratum,
                "growing": v.growing,
                "germs_ok": v.germs_ok,
                "legality_ok": v.legality_ok,
                "injectivity_ok": v.injectivity_ok,
                "injectivity_bound": v.injectivity_bound,
                "paths_checked": v.paths_checked,
                "ok": v.ok,
            }
            for v in rtt
        ]
        record = {
            "input": doc.name,
            "representative_verified": True,
            "train_track": {
                "ok": tt.ok,
                "witness_edge": None if tt.witness_edge is None else graph.edge_names[tt.witness_edge],
                "witness_turn": None if tt.witness_turn is None else turn_text(graph, tt.witness_turn),
            },
            "relative_train_track": rows,
        }
        text = ["representative: verified"]
        if tt.ok:
            text.append("train track: pass")
        else:
            text.append(
                f"train track: FAIL at edge {graph.edge_names[tt.witness_edge]}"
                f" (turn {turn_text(graph, tt.witness_turn)})"
            )
        for v, row in zip(rtt, rows):
            if not v.growing:
                text.append(f"stratum {v.stratum}: zero stratum (conditions not applicable)")
                continue
            text.append(
                f"stratum {v.stratum}: germs {'ok' if v.germs_ok else 'FAIL'}"
                + (f" (edge {graph.edge_names[v.germ_witness]})" if v.germ_witness is not None else "")
                + f", legality {'ok' if v.legality_ok else 'FAIL'}"
                + f", injectivity {'ok' if v.injectivity_ok else 'FAIL'}"
                + f" up to bound {v.injectivity_bound} ({v.paths_checked} paths)"
            )
        _emit(fmt, "verify", record, rows, text)

    _guarded(fmt, "verify", run)


@main.command()
@click.argument("input_arg", metavar="INPUT")
@click.option("--element", required=True)
@click.option("--iterations", default=20, show_default=True)
@format_option
def bound(input_arg, element, iterations, fmt):
    """Check the polynomial growth bound along the orbit of one element."""

    def run():
        doc = _load(input_arg)
        rep = _require_verified(doc)
        g = parse_word(doc.group, element)
        rpt = bound_check(rep, g, iterations)
        rows = rpt.rows
        record = {"input": doc.name, **rpt.to_record()}
        text = [
            f"element {word_str(g)}  strata {rpt.coefficients.shape[0]}  "
            f"top eigenvalue {rpt.top_eigenvalue!r}",
            f"coefficient product {rpt.product_bound!r}  overall: {'pass' if rpt.ok else 'FAIL'}",
        ] + [
            f"  k={row['k']:3d}  observed={row['observed']!r}  bound={row['bound']!r}  "
            f"{'ok' if row['ok'] else 'VIOLATED'}"
            for row in rows
        ]
        _emit(fmt, "bound", record, rows, text)

    _guarded(fmt, "bound", run)


@main.command()
@click.argument("input_arg", metavar="INPUT")
@click.option("--n-grid", default="1,10,100,1000", show_default=True)
@format_option
def sweep(input_arg, n_grid, fmt):
    """Lipschitz constant of the induced map on each rescaled metric."""

    def run():
        doc = _load(input_arg)
        rep = _require_verified(doc)
        rows = _lipschitz_rows(doc, displacement_bracket(rep, _grid(n_grid)))
        record = {"input": doc.name, "rows": rows}
        text = [f"  N={r['N']!r}  Lip={r['lipschitz']!r}  edge {r['witness_edge']}" for r in rows]
        _emit(fmt, "sweep", record, rows, text)

    _guarded(fmt, "sweep", run)


@main.command()
@format_option
def examples(fmt):
    """List the bundled example documents."""
    rows = [{"name": name, "description": desc} for name, desc in BUNDLED.items()]
    record = {"examples": rows}
    text = [f"  {row['name']}: {row['description']}" for row in rows]
    _emit(fmt, "examples", record, rows, text)


def turn_text(graph: MarkedMetricGraph, turn) -> str:
    def direction(d):
        dart, twist = d
        s = graph.dart_str(dart)
        if twist:
            i = graph.vertex_factor[turn.vertex]
            s += f"[{graph.group.factor_names[i]}:{twist}]"
        return s

    d1, d2 = turn.directions
    return f"{graph.vertex_names[turn.vertex]}:{{{direction(d1)},{direction(d2)}}}"


if __name__ == "__main__":
    main()
