"""The input document: one text file describing presentation, graph, map.

Sections are ``[name]`` headers followed by ``key = value`` lines; ``#``
starts a comment.  Words use free-letter names with a trailing apostrophe
for inverses and ``Factor:index`` tokens for factor elements; paths use
edge names (apostrophe reverses) with the same factor-element tokens
between them.  Parsing is positional: errors name the offending line,
and each section takes only the keys listed in ``_KEYS``.
A graph that fails ``validate_graph``, its marking not an isomorphism
included, is rejected with ``InputError`` naming the first violation.

    [presentation]
    free = a b
    factors = P
    [factor P]
    cyclic = 2
    [graph]
    vertices = v0 v1
    base = v0
    vertex v1 = P
    edge a = v0 v0 1.0
    edge sP = v0 v1 0.5
    marking a = a
    marking P = sP
    [automorphism]
    free a = b
    ...
    [inverse]
    ...
    [map]
    vertex v0 = v0
    edge a = b
    tether =
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .free_product import (
    FACTOR,
    FREE,
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    Word,
)
from .graph_of_groups import GraphPath, MarkedMetricGraph, validate_graph
from .graph_map import TopologicalRepresentative


@dataclass
class InputDocument:
    group: FreeProduct
    graph: MarkedMetricGraph
    automorphism: Automorphism
    representative: TopologicalRepresentative | None
    name: str = ""


# -- low-level section scanner ---------------------------------------------------

#: the keys each section takes.  A name ending in a space is followed by a name of the
#: document's own, as in ``[factor P]`` or ``edge a = ...``
_KEYS = {
    "presentation": {"free", "factors", "relative-generators"},
    "factor ": {"cyclic", "table"},
    "graph": {"vertices", "base", "vertex ", "edge ", "marking "},
    "automorphism": {"free ", "factor ", "conjugator "},
    "inverse": {"free ", "factor ", "conjugator "},
    "map": {"vertex ", "twist ", "twist-conjugator ", "edge ", "tether"},
}


def _scan(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    """Each section as an ordered map ``key -> (line, value)``, checked against ``_KEYS``.

    Runs of whitespace inside section and key names read as one space.  A
    repeated or unknown section or key, a second key in a ``[factor X]``
    section, and a ``[factor X]`` section for a factor that ``[presentation]``
    does not declare are errors at their line.
    """
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    factor_lines: dict[str, int] = {}
    current: str | None = None
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = " ".join(line[1:-1].split())
            if current in sections:
                raise InputError(f"line {n}: duplicate section [{current}]")
            kind, space, factor = current.partition(" ")
            allowed = _KEYS.get(kind + space)
            if allowed is None:
                raise InputError(f"line {n}: unknown section [{current}]")
            if factor:  # of the sections, only [factor X] takes a name
                factor_lines[factor] = n
            sections[current] = rows = {}
            continue
        if current is None:
            raise InputError(f"line {n}: content before any section header")
        if "=" not in line:
            raise InputError(f"line {n}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = " ".join(key.split())
        if key in rows:
            raise InputError(f"line {n}: duplicate key '{key}' in [{current}]")
        head, space, _ = key.partition(" ")
        if head + space not in allowed:
            raise InputError(f"line {n}: unknown key '{key}' in [{current}]")
        if rows and factor:
            raise InputError(f"line {n}: [{current}] takes one of 'cyclic' and 'table'")
        rows[key] = (n, value.strip())
    if not sections:
        raise InputError("empty document: no sections found")
    if "presentation" not in sections:
        raise InputError("document has no [presentation] section")
    declared = sections["presentation"].get("factors", (0, ""))[1].split()
    for fname, n in factor_lines.items():
        if fname not in declared:
            raise InputError(f"line {n}: [factor {fname}] is not declared in [presentation]")
    return sections


def _named(rows: dict[str, tuple[int, str]], *kinds: str) -> list[dict[str, tuple[int, str]]]:
    """Per kind, the rows ``kind <name> = value`` of one section as ``name -> (line, value)``, in order."""
    out: dict[str, dict[str, tuple[int, str]]] = {kind: {} for kind in kinds}
    for key, row in rows.items():
        kind, _, name = key.partition(" ")
        if kind in out:
            out[kind][name] = row
    return list(out.values())


def _ints(text: str, line: int, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split())
    except ValueError:
        raise InputError(f"line {line}: {what} entries must be integers") from None


# -- token helpers ------------------------------------------------------------------


def parse_word(group: FreeProduct, text: str, line: int = 0) -> Word:
    tokens = text.split()
    word = group.parse_tokens(tokens)
    if word is not None:
        return word
    # a token outside the table is a fault or an odd spelling such as P:01: read each token
    # as written, so that a fault is reported as the first unreadable token or else as the
    # first factor element out of range
    return _parse_letters(group, tokens, line)


def _parse_letters(group: FreeProduct, tokens: list[str], line: int) -> Word:
    letters = []
    for token in tokens:
        if token == "1":
            continue
        if ":" in token:
            fname, _, elem = token.partition(":")
            i = group.factor_index.get(fname)
            if i is None:
                raise InputError(f"line {line}: unknown factor '{fname}' in word")
            try:
                a = int(elem)
            except ValueError:
                raise InputError(f"line {line}: bad factor element token '{token}'")
            letters.append((FACTOR, i, a))
            continue
        sign = 1
        name = token
        if token.endswith("'"):
            sign = -1
            name = token[:-1]
        j = group.free_index.get(name)
        if j is None:
            raise InputError(f"line {line}: unknown free letter '{name}'")
        letters.append((FREE, j, sign))
    try:
        return group.word(letters)
    except InputError as err:
        raise InputError(f"line {line}: {err}")


def parse_path(graph: MarkedMetricGraph, text: str, start: int, line: int = 0) -> GraphPath:
    edge_index = graph.edge_index
    factor_index = graph.group.factor_index
    prefix = 0
    steps: list[tuple[int, int]] = []
    at = start
    pending_elem_allowed = True
    for token in text.split():
        if ":" in token and token.partition(":")[0] in factor_index:
            fname, _, elem = token.partition(":")
            try:
                a = int(elem)
            except ValueError:
                raise InputError(f"line {line}: bad element token '{token}'")
            i = graph.vertex_factor[at]
            if i is None or i != factor_index[fname]:
                raise InputError(
                    f"line {line}: element '{token}' does not live at vertex "
                    f"{graph.vertex_names[at]}"
                )
            if not 0 <= a < graph.group.factors[i].order:
                raise InputError(f"line {line}: element index out of range in '{token}'")
            if not pending_elem_allowed:
                raise InputError(f"line {line}: two consecutive group elements in path")
            if steps:
                d, e = steps[-1]
                steps[-1] = (d, a if e == 0 else graph.vertex_mul(at, e, a))
            else:
                prefix = a
            pending_elem_allowed = False
            continue
        name = token
        reverse = False
        if token.endswith("'"):
            reverse = True
            name = token[:-1]
        m = edge_index.get(name)
        if m is None:
            raise InputError(f"line {line}: unknown edge '{name}' in path")
        d = 2 * m + (1 if reverse else 0)
        if graph.dart_tail(d) != at:
            raise InputError(
                f"line {line}: edge '{token}' does not start at vertex {graph.vertex_names[at]}"
            )
        steps.append((d, 0))
        at = graph.dart_head(d)
        pending_elem_allowed = True
    return GraphPath(graph, start, prefix, tuple(steps))


# -- document parsing -----------------------------------------------------------------


def parse_document(text: str, name: str = "") -> InputDocument:
    sections = _scan(text)
    pres = sections["presentation"]
    free_names = pres.get("free", (0, ""))[1].split()
    factor_names = pres.get("factors", (0, ""))[1].split()
    factors = []
    for fname in factor_names:
        fmap = sections.get(f"factor {fname}")
        if fmap is None:
            raise InputError(f"missing [factor {fname}] section")
        if "cyclic" in fmap:
            n_line, value = fmap["cyclic"]
            try:
                order = int(value)
            except ValueError:
                raise InputError(f"line {n_line}: cyclic order must be an integer")
            if order < 1:
                raise InputError(f"line {n_line}: cyclic order must be positive")
            factors.append(FiniteGroupTable.cyclic(order, name=fname))
        elif "table" in fmap:
            n_line, value = fmap["table"]
            rows = [_ints(row, n_line, "table") for row in value.split("/")]
            try:
                factors.append(FiniteGroupTable(rows, name=fname))
            except InputError as err:
                raise InputError(f"line {n_line}: {err}")
        else:
            raise InputError(f"[factor {fname}] needs 'cyclic = n' or 'table = ...'")
    group = FreeProduct(factors, len(free_names), free_names or None)
    if "relative-generators" in pres:
        n_line, value = pres["relative-generators"]
        words = [parse_word(group, part.strip(), n_line) for part in value.split(",") if part.strip()]
        group.set_relative_generators(words)

    if "graph" not in sections:
        raise InputError("document has no [graph] section")
    gmap = sections["graph"]
    vertex_names = gmap.get("vertices", (0, ""))[1].split()
    if not vertex_names:
        raise InputError("[graph] must declare vertices")
    v_index = {name: i for i, name in enumerate(vertex_names)}
    if gmap.get("base", (0, ""))[1] not in v_index:
        raise InputError("[graph] must declare a valid base vertex")
    vertex_factor: list[int | None] = [None] * len(vertex_names)
    f_index = group.factor_index
    vertex_rows, edge_rows, marking_rows = _named(gmap, "vertex", "edge", "marking")
    for vname, (n, fname) in vertex_rows.items():
        if vname not in v_index:
            raise InputError(f"line {n}: unknown vertex '{vname}'")
        if fname not in f_index:
            raise InputError(f"line {n}: unknown factor '{fname}'")
        vertex_factor[v_index[vname]] = f_index[fname]
    edges = []
    for ename, (n, value) in edge_rows.items():
        parts = value.split()
        if len(parts) != 3:
            raise InputError(f"line {n}: edge '{ename}' needs 'tail head length'")
        tail, head, length_s = parts
        if tail not in v_index or head not in v_index:
            raise InputError(f"line {n}: edge '{ename}' references unknown vertices")
        try:
            length = float(length_s)
        except ValueError:
            raise InputError(f"line {n}: edge '{ename}' has non-numeric length")
        if not length > 0:
            raise InputError(f"line {n}: edge '{ename}' has non-positive length {length_s}")
        edges.append((v_index[tail], v_index[head], length))
    graph = MarkedMetricGraph(
        group,
        len(vertex_names),
        edges,
        vertex_factor,
        v_index[gmap["base"][1]],
        vertex_names=vertex_names,
        edge_names=list(edge_rows),
    )
    marking = []
    for generator in (*group.free_names, *factor_names):
        if generator not in marking_rows:
            raise InputError(f"[graph] is missing 'marking {generator}'")
        n, value = marking_rows[generator]
        marking.append(parse_path(graph, value, graph.base, n))
    graph.free_marking = tuple(marking[: group.free_rank])
    graph.factor_marking = tuple(marking[group.free_rank :])
    # every command reads elements through the marking, so a graph that is not a marking of G is rejected
    if violations := validate_graph(graph):
        raise InputError(violations[0].message)

    automorphism = _parse_automorphism(sections, "automorphism", group)
    inverse = _parse_automorphism(sections, "inverse", group)
    automorphism.inverse = inverse
    inverse.inverse = automorphism

    representative = None
    if "map" in sections:
        representative = _parse_map(sections["map"], group, graph, automorphism, v_index)
    return InputDocument(group, graph, automorphism, representative, name)


def _parse_automorphism(sections, section_name, group) -> Automorphism:
    f_index = group.factor_index
    if section_name not in sections:
        raise InputError(f"document has no [{section_name}] section")
    rows = sections[section_name]
    free_images: dict[str, Word] = {}
    permutation = [None] * len(group.factors)
    isos: list[tuple[int, ...] | None] = [None] * len(group.factors)
    conjugators: list[Word] = [group.identity()] * len(group.factors)
    free_rows, factor_rows, conjugator_rows = _named(rows, "free", "factor", "conjugator")
    for name, (n, value) in free_rows.items():
        if name not in group.free_index:
            raise InputError(f"line {n}: unknown free letter '{name}'")
        free_images[name] = parse_word(group, value, n)
    for name, (n, value) in factor_rows.items():
        if name not in f_index:
            raise InputError(f"line {n}: unknown factor '{name}'")
        if ":" not in value:
            raise InputError(f"line {n}: expected 'Target : image table'")
        target, _, table_s = value.partition(":")
        target = target.strip()
        if target not in f_index:
            raise InputError(f"line {n}: unknown target factor '{target}'")
        permutation[f_index[name]] = f_index[target]
        isos[f_index[name]] = _ints(table_s, n, "iso table")
    for name, (n, value) in conjugator_rows.items():
        if name not in f_index:
            raise InputError(f"line {n}: unknown factor '{name}'")
        conjugators[f_index[name]] = parse_word(group, value, n)
    images = []
    for name in group.free_names:
        if name not in free_images:
            raise InputError(f"[{section_name}] is missing 'free {name}'")
        images.append(free_images[name])
    for i, fname in enumerate(group.factor_names):
        if permutation[i] is None:
            raise InputError(f"[{section_name}] is missing 'factor {fname}'")
    return Automorphism(group, images, permutation, isos, conjugators)


def _parse_map(rows, group, graph, automorphism, v_index) -> TopologicalRepresentative:
    f_index = group.factor_index
    vertex_images: list[int | None] = [None] * graph.n_vertices
    twists: dict[int, tuple[int, ...]] = {}
    twist_conjugators: dict[int, int] = {}
    vertex_rows, conjugator_rows, twist_rows, edge_rows = _named(
        rows, "vertex", "twist-conjugator", "twist", "edge"
    )
    for name, (n, value) in vertex_rows.items():
        if name not in v_index or value not in v_index:
            raise InputError(f"line {n}: unknown vertex in 'vertex {name} = {value}'")
        vertex_images[v_index[name]] = v_index[value]
    for name, (n, value) in conjugator_rows.items():
        if name not in v_index:
            raise InputError(f"line {n}: unknown vertex '{name}'")
        fname, _, elem = value.partition(":")
        if fname not in f_index:
            raise InputError(f"line {n}: conjugator must be 'Factor:index'")
        try:
            twist_conjugators[v_index[name]] = int(elem)
        except ValueError:
            raise InputError(f"line {n}: bad conjugator token '{value}'")
    for name, (n, value) in twist_rows.items():
        if name not in v_index:
            raise InputError(f"line {n}: unknown vertex '{name}'")
        twists[v_index[name]] = _ints(value, n, "twist table")
    for v in range(graph.n_vertices):
        if vertex_images[v] is None:
            raise InputError(f"[map] is missing 'vertex {graph.vertex_names[v]}'")
    for v in range(graph.n_vertices):
        if graph.vertex_factor[v] is not None and v not in twists:
            # default: the automorphism's own factor isomorphism
            twists[v] = automorphism.isos[graph.vertex_factor[v]]
    edge_images = []
    for m, ename in enumerate(graph.edge_names):
        if ename not in edge_rows:
            raise InputError(f"[map] is missing 'edge {ename}'")
        n, value = edge_rows[ename]
        start = vertex_images[graph.edge_ends[m][0]]
        edge_images.append(parse_path(graph, value, start, n))
    if "tether" not in rows:
        tether = graph.trivial_path(graph.base)
        if vertex_images[graph.base] != graph.base:
            raise InputError("[map] moves the base vertex, so it needs a tether")
    else:
        n, value = rows["tether"]
        tether = parse_path(graph, value, graph.base, n)
    return TopologicalRepresentative(
        graph,
        automorphism,
        vertex_images,
        edge_images,
        tether,
        twists,
        twist_conjugators,
    )
