"""Command line interface.

Every command takes an input document (a file path or the name of a
bundled example) and emits its report as human text, JSON records or a
flat CSV table.  Exit codes: 0 success, 2 validation failure, 3 numeric
non-convergence, 4 resource guard tripped.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import click

from . import __version__
from .document import InputDocument, parse_document, parse_word
from .dynamics import (
    ITERATIONS,
    N_GRID,
    WORD_GUARD,
    bound_check,
    displacement_bracket,
    growth_report,
    relative_length_function,
    tree_length_function,
)
from .errors import InputError, NonConvergenceError, ResourceLimitError
from .examples import BUNDLED, bundled_text
from .free_product import Word, word_str
from .graph_map import PF_TOLERANCE, TopologicalRepresentative, verify_representative
from .legality import classify_turns, verify_rtt, verify_train_track
from .graph_of_groups import MarkedMetricGraph

#: the exit code of each library error; success exits 0
EXIT_CODES = {InputError: 2, NonConvergenceError: 3, ResourceLimitError: 4}


def _load(input_arg: str) -> InputDocument:
    path = Path(input_arg)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise InputError(f"cannot read '{input_arg}': {err.strerror}") from None
        except UnicodeDecodeError as err:
            raise InputError(f"cannot read '{input_arg}': not UTF-8 ({err.reason} at byte {err.start})") from None
        return parse_document(text, name=path.name)
    if input_arg in BUNDLED:
        return parse_document(bundled_text(input_arg), name=input_arg)
    raise InputError(f"no such file or bundled example: '{input_arg}'")


def _trusted_map(doc: InputDocument, required: bool) -> TopologicalRepresentative | None:
    """The document's map if it passes ``verify_representative``; otherwise InputError or None.

    A command that needs the map (``required``) fails without a verified
    one.  ``growth`` goes on without it by iterating words, so the
    automorphism must then pass ``Automorphism.validate`` on its own.
    """
    if doc.representative is None:
        problem = "document has no [map] section"
    elif violations := verify_representative(doc.representative):
        problem = "representative failed verification:\n  " + "\n  ".join(str(v) for v in violations)
    else:
        return doc.representative
    if required:
        raise InputError(problem)
    doc.automorphism.validate()
    return None


_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONSTANTS = {True: "true", False: "false", None: "null"}
_CONSTANT_TYPES = frozenset({bool, type(None)})
_LISTS = frozenset({list, tuple})


def _json(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, through the C encoder.

    ``indent`` makes ``json`` fall back to its pure-Python encoder, so each
    run of scalars (a list of scalars or a flat dict) goes to the C encoder
    in one call without it, and a list of dicts that share one set of
    keys goes column by column (``_json_columns``) when its values are
    scalars or lists of scalars.  Its separators carry the newline and the
    indent: ``ensure_ascii`` escapes every control character, so each raw
    newline in the output is a separator.  A callable in ``obj`` is a
    fragment written in advance: it is called with the newline and indent
    of its level and returns its pieces.  The pieces are collected in one
    list and joined once, so no level copies the text of the levels below it.
    """
    out: list[str] = []
    _json_parts(obj, "\n", out)
    return "".join(out)


def _json_parts(obj, pad: str, out: list[str]) -> None:
    """Append the pieces of ``_json(obj)`` to out; ``pad`` is the newline and indent of this level."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
        elif {type(v) for v in obj.values()} <= _SCALARS:
            flat = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
            out.append("{" + inner + flat[1:-1] + pad + "}")
        else:
            opening = "{" + inner
            for k, v in sorted(obj.items()):
                # each key as json writes it: quoted, with numbers and constants converted
                out.append(opening + json.dumps({k: None})[1:-7] + ": ")
                _json_parts(v, inner, out)
                opening = "," + inner
            out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        types = {type(x) for x in obj}
        if not obj:
            out.append("[]")
        elif types <= _SCALARS:
            flat = json.dumps(obj, separators=("," + inner, ": "))
            out.append("[" + inner + flat[1:-1] + pad + "]")
        elif types == {dict} and (rows := _json_rows(obj, pad)) is not None:
            out += rows
        else:
            opening = "[" + inner
            for x in obj:
                out.append(opening)
                _json_parts(x, inner, out)
                opening = "," + inner
            out.append(pad + "]")
    elif callable(obj):
        out += obj(pad)
    else:
        out.append(json.dumps(obj))


def _json_rows(rows: list[dict], pad: str) -> list[str] | None:
    """The pieces of non-empty flat dicts with one set of str keys, or None for other dicts.

    A value may also be a list of scalars, when every row holds one under that key.
    """
    keys = sorted(rows[0]) if set(map(type, rows[0])) == {str} else None
    if not keys or set(map(len, rows)) != {len(keys)}:
        return None
    try:
        columns = [[x[k] for x in rows] for k in keys]
    except KeyError:
        return None
    if not all(map(_column_kind, columns)):
        return None
    return _json_columns(keys, columns, pad)


def _column_kind(column: list) -> str | None:
    """How ``_json_columns`` writes a column: "constant", "scalar" or "list" (of scalars), or None."""
    types = set(map(type, column))
    if types <= _CONSTANT_TYPES:
        return "constant"
    if types <= _SCALARS:
        return "scalar"
    if types <= _LISTS and set(map(type, chain.from_iterable(column))) <= _SCALARS:
        return "list"
    return None


def _json_columns(keys: list[str], columns: list[list], pad: str) -> list[str]:
    """The pieces of the rows ``dict(zip(keys, values))``, one value from each column, keys sorted.

    A column of booleans and nulls maps to the constants, so no string is
    built per row; the keys, the other columns and the items of columns of
    scalar lists are encoded together by one C call whose item separator
    is a newline, and split there.  The values and the separators that
    open them are then written into one list by a slice assignment per column.
    """
    count = len(columns[0])
    if not count:
        return ["[]"]
    kinds = list(map(_column_kind, columns))
    coded = [
        chain.from_iterable(col) if kind == "list" else col for col, kind in zip(columns, kinds) if kind != "constant"
    ]
    text = iter(json.dumps([*keys, *chain.from_iterable(coded)], separators=("\n", ":"))[1:-1].split("\n"))
    names = [name + ": " for name in islice(text, len(keys))]
    inner, deep = pad + "  ", pad + "    "
    opening, item_sep, closing = "[" + deep + "  ", "," + deep + "  ", deep + "]"
    encoded = [
        list(map(_CONSTANTS.__getitem__, col))
        if kind == "constant"
        else [opening + item_sep.join(islice(text, len(v))) + closing if v else "[]" for v in col]
        if kind == "list"
        else list(islice(text, count))
        for col, kind in zip(columns, kinds)
    ]
    seps = [inner + "}," + inner + "{" + deep + names[0]] + ["," + deep + name for name in names[1:]]
    width = 2 * len(keys)
    parts = [""] * (width * count)
    for c, (sep, col) in enumerate(zip(seps, encoded)):
        parts[2 * c :: width] = [sep] * count
        parts[2 * c + 1 :: width] = col
    parts[0] = "[" + inner + "{" + deep + names[0]  # the first row opens the list, not after a row
    parts.append(inner + "}" + pad + "]")
    return parts


def _emit(fmt: str, command: str, record: dict, rows: list[dict], text: list[str]) -> None:
    header = f"outgrowth {__version__} {command}"
    if fmt == "json":
        # ensure_ascii leaves no raw ESC for click's ANSI strip to remove, so skip its scan
        print(_json({"version": header, "report": record}), flush=True)
        return
    if fmt == "csv":
        out = f"# {header}"
        if rows:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
            out += "\n" + buf.getvalue().rstrip("\n")
    else:
        out = "\n".join([f"# {header}", *text])
    # an explicit file: without one, click caches a wrapper per sys.stdout
    # that keeps every redirected stream (and its contents) alive
    click.echo(out, file=sys.stdout)


def _fail(fmt: str, command: str, err: Exception) -> None:
    code = EXIT_CODES[type(err)]
    if fmt == "json":
        _emit(fmt, command, {"error": {"type": type(err).__name__, "message": str(err), "exit_code": code}}, [], [])
    else:
        click.echo(f"error ({type(err).__name__}): {err}", file=sys.stderr)
    sys.exit(code)


def _parse_sample(doc: InputDocument, sample: str | None) -> list[Word]:
    if sample is None:
        return default_sample(doc)
    if words := [parse_word(doc.group, part.strip()) for part in sample.split(",") if part.strip()]:
        return words
    raise InputError(f"sample '{sample}' names no word")


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
iterations_option = click.option("--iterations", default=ITERATIONS, show_default=True)
n_grid_option = click.option("--n-grid", default=",".join(f"{n:g}" for n in N_GRID), show_default=True)


@click.group()
@click.version_option(__version__)
def main():
    """Growth, legality and displacement reports for free product automorphisms."""


def _command(*options, verified: bool = True):
    """Register a document command on ``main``: INPUT, then ``options``, then ``--format``.

    The callback loads INPUT, takes its map under ``_trusted_map`` (required
    when ``verified``), calls the body with the document, that map, the
    format and the options, and emits the ``(record, rows, text)`` it
    returns.  The library's errors exit with their ``EXIT_CODES``.
    """

    def register(body):
        name = body.__name__

        @functools.wraps(body)
        def callback(input_arg, fmt, **kwargs):
            try:
                doc = _load(input_arg)
                _emit(fmt, name, *body(doc, _trusted_map(doc, verified), fmt, **kwargs))
            except tuple(EXIT_CODES) as err:
                _fail(fmt, name, err)

        # as stacked decorators would, the last applied comes first in the help
        for decorate in reversed((click.argument("input_arg", metavar="INPUT"), *options, format_option)):
            callback = decorate(callback)
        return main.command()(callback)

    return register


@_command()
def analyze(doc, rep, fmt):
    """Strata, eigenvalues and the legality table of the representative."""
    dec = rep.strata()
    graph = doc.graph
    W = dec.weight_matrix
    strata_rows = []
    for s in dec.strata:
        strata_rows.append(
            {
                "stratum": s.index,
                "edges": " ".join(graph.edge_names[e] for e in s.edges),
                "growing": s.growing,
                "eigenvalue": s.eigenvalue,
                "weights": " ".join(f"{graph.edge_names[e]}={float(W[s.index - 1, e])!r}" for e in s.edges)
                if s.growing
                else "",
            }
        )
    # every format decides the turns; csv prints none of them
    turns = classify_turns(rep)
    record = {
        "input": doc.name,
        "transition_matrix": dec.matrix.tolist(),
        "strata": [dict(row, bracket=list(s.bracket)) for row, s in zip(strata_rows, dec.strata)],
        "top_eigenvalue": dec.top_eigenvalue,
        "top_stratum": dec.top_stratum,
        "parameters": {"pf_tolerance": PF_TOLERANCE},
    }
    text = []
    if fmt != "csv":
        # each turn's row gathers its pieces by vertex, by direction and by step count k at k + 1
        labels = [_direction_text(graph, graph.dart_tail(x[0]), x) for x in turns.directions]
        names = graph.vertex_names
        top = int(turns.steps.max(initial=0))
        index = [turns.vertex.tolist(), turns.first.tolist(), turns.second.tolist(), (turns.steps + 1).tolist()]
    if fmt == "json":
        record["legality"] = functools.partial(_legality_json, names, labels, top, index)
    elif fmt == "text":
        text.append(f"strata: {dec.count}  top eigenvalue: {dec.top_eigenvalue!r} at stratum {dec.top_stratum}")
        for row in strata_rows:
            grow = "growing" if row["growing"] else "zero"
            text.append(f"  stratum {row['stratum']} ({grow}): edges [{row['edges']}] eigenvalue {row['eigenvalue']!r}")
            if row["weights"]:
                text.append(f"    weights: {row['weights']}")
        status = ["legal", "degenerate", *(f"illegal in {k} step(s)" for k in range(1, top + 1))]
        tables = [[f"\n  {v}:{{" for v in names], [s + "," for s in labels], [s + "}: " for s in labels], status]
        legal = int((turns.steps < 0).sum())
        text.append(f"turns: {len(turns.steps)} ({legal} legal)" + "".join(_gather(tables, index)))
    return record, strata_rows, text


@_command(
    click.option("--element", required=True, help="word, e.g. \"a b'\" or \"P:1 a\""),
    iterations_option,
    click.option("--length", "length_kind", type=click.Choice(["relative", "tree"]), default="tree", show_default=True),
    click.option(
        "--guard",
        default=WORD_GUARD,
        show_default=True,
        help="size guard: syllables of iterated words, or darts of the iterated loop on a train track",
    ),
    verified=False,
)
def growth(doc, rep, fmt, element, iterations, length_kind, guard):
    """Orbit length sequence and growth estimates for one element."""
    g = parse_word(doc.group, element)
    if length_kind == "relative":
        length = relative_length_function(doc.group)
    else:
        length = tree_length_function(doc.graph)
    # a verified map lets legal loops iterate by crossing counts; without one words are rewritten
    rpt = growth_report(doc.automorphism, g, length, iterations, guard=guard, rep=rep)
    rows = [
        {
            "k": k,
            "length": rpt.values[k],
            "root_estimate": rpt.root_estimates[k - 1] if k >= 1 else None,
            "ratio": rpt.ratio_estimates[k - 1] if k >= 1 else None,
        }
        for k in range(iterations + 1)
    ]
    text = [
        f"element {word_str(g)}  length {length_kind}  iterations {iterations}",
        f"estimate {rpt.estimate!r}  converged {rpt.converged}  note: {rpt.note}",
    ] + [
        f"  k={row['k']:3d}  l={row['length']!r}  root={row['root_estimate']!r}  ratio={row['ratio']!r}"
        for row in rows
    ]
    return {"input": doc.name, **rpt.to_record()}, rows, text


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


@_command(
    n_grid_option,
    iterations_option,
    click.option("--sample", default=None, help="comma-separated words (default: a small built-in sample)"),
)
def displacement(doc, rep, fmt, n_grid, iterations, sample):
    """Bracket the displacement between growth estimates and rescaled Lipschitz constants."""
    words = _parse_sample(doc, sample)
    rpt = displacement_bracket(rep, _grid(n_grid), iterations, words)
    rows = _lipschitz_rows(doc, rpt)
    text = [
        f"bracket [{rpt.lower!r}, {rpt.upper!r}]  width {rpt.width!r}",
        f"top eigenvalue {rpt.top_eigenvalue!r} at stratum {rpt.top_stratum}; "
        f"upper side attained at N={rpt.upper_at!r}",
        f"Lipschitz constants non-increasing along grid: {rpt.monotone}",
    ] + [f"  N={row['N']!r}  Lip={row['lipschitz']!r}  edge {row['witness_edge']}" for row in rows] + [
        f"  growth {word_str(g.element)}: estimate {g.estimate!r} ({g.note})"
        for g in rpt.growth_reports
    ]
    return {"input": doc.name, **rpt.to_record()}, rows, text


@_command(
    click.option(
        "--rtt-bound",
        default=None,
        type=int,
        help="path bound for the injectivity check [default: twice the edge count]",
    )
)
def verify(doc, rep, fmt, rtt_bound):
    """Train track and relative train track verdicts for the representative."""
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
            f"train track: FAIL at edge {graph.edge_names[tt.witness_edge]} (turn {turn_text(graph, tt.witness_turn)})"
        )
    for v in rtt:
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
    return record, rows, text


@_command(click.option("--element", required=True), iterations_option)
def bound(doc, rep, fmt, element, iterations):
    """Check the polynomial growth bound along the orbit of one element."""
    g = parse_word(doc.group, element)
    rpt = bound_check(rep, g, iterations)
    rows = rpt.rows
    text = [
        f"element {word_str(g)}  strata {rpt.coefficients.shape[0]}  top eigenvalue {rpt.top_eigenvalue!r}",
        f"coefficient product {rpt.product_bound!r}  overall: {'pass' if rpt.ok else 'FAIL'}",
    ] + [
        f"  k={row['k']:3d}  observed={row['observed']!r}  bound={row['bound']!r}  {'ok' if row['ok'] else 'VIOLATED'}"
        for row in rows
    ]
    return {"input": doc.name, **rpt.to_record()}, rows, text


@_command(n_grid_option)
def sweep(doc, rep, fmt, n_grid):
    """Lipschitz constant of the induced map on each rescaled metric."""
    rows = _lipschitz_rows(doc, displacement_bracket(rep, _grid(n_grid)))
    text = [f"  N={r['N']!r}  Lip={r['lipschitz']!r}  edge {r['witness_edge']}" for r in rows]
    return {"input": doc.name, "rows": rows}, rows, text


@main.command()
@format_option
def examples(fmt):
    """List the bundled example documents."""
    rows = [{"name": name, "description": desc} for name, desc in BUNDLED.items()]
    record = {"examples": rows}
    text = [f"  {row['name']}: {row['description']}" for row in rows]
    _emit(fmt, "examples", record, rows, text)


def _gather(tables: list[list[str]], indices: list[list[int]]) -> list[str]:
    """Row after row, the piece that each index column picks from its table for the row."""
    width, count = len(tables), len(indices[0])
    parts = [""] * (width * count)
    for c, (table, idx) in enumerate(zip(tables, indices)):
        # one index gives itemgetter a bare item, not a tuple
        parts[c::width] = itemgetter(*idx)(table) if count > 1 else [table[i] for i in idx]
    return parts


def _legality_json(names: list[str], labels: list[str], top: int, index: list[list[int]], pad: str) -> list[str]:
    """The pieces of the legality rows at ``pad``, from ``analyze``'s tables, as ``_json`` writes their dicts.

    JSON escapes one code point at a time, so escaped names and labels join to the escaped turn text.
    """
    vertex, first, second, step = index
    if not step:
        return ["[]"]
    inner, deep = pad + "  ", pad + "    "
    # by step count k at k + 1: a row's fields up to the opening quote of its turn text
    fields = [
        {"degenerate": k == 0, "legal": k < 0, "steps_to_degeneracy": None if k < 0 else k, "turn": ""}
        for k in range(-1, top + 1)
    ]
    escaped = [json.dumps(s)[1:-1] for s in labels]
    tables = [
        [f",{inner}{{{deep}" + json.dumps(f, sort_keys=True, separators=("," + deep, ": "))[1:-2] for f in fields],
        [json.dumps(v)[1:-1] + ":{" for v in names],
        [s + "," for s in escaped],
        [s + '}"' + inner + "}" for s in escaped],
    ]
    parts = _gather(tables, [step, vertex, first, second])
    parts[0] = "[" + parts[0][1:]  # the first row opens the list, not after a row
    parts.append(pad + "]")
    return parts


def _direction_text(graph: MarkedMetricGraph, v: int, direction) -> str:
    dart, twist = direction
    s = graph.dart_str(dart)
    if twist:
        s += f"[{graph.group.factor_names[graph.vertex_factor[v]]}:{twist}]"
    return s


def turn_text(graph: MarkedMetricGraph, turn) -> str:
    d1, d2 = (_direction_text(graph, turn.vertex, d) for d in turn.directions)
    return f"{graph.vertex_names[turn.vertex]}:{{{d1},{d2}}}"


if __name__ == "__main__":
    main()
