"""The input document: one text file describing presentation, graph, map.

Sections are ``[name]`` headers followed by ``key = value`` lines; ``#``
starts a comment.  Words use free-letter names with a trailing apostrophe
for inverses and ``Factor:index`` tokens for factor elements; paths use
edge names (apostrophe reverses) with the same factor-element tokens
between them.  Parsing is positional: errors name the offending line.
Emission is canonical, so parse-emit-parse is the identity on documents.

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
    word_str,
)
from .graph_of_groups import GraphPath, MarkedMetricGraph
from .graph_map import TopologicalRepresentative


@dataclass
class InputDocument:
    group: FreeProduct
    graph: MarkedMetricGraph
    automorphism: Automorphism
    representative: TopologicalRepresentative | None
    name: str = ""


# -- low-level section scanner ---------------------------------------------------


def _scan(text: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise InputError(f"line {n}: duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise InputError(f"line {n}: content before any section header")
        if "=" not in line:
            raise InputError(f"line {n}: expected 'key = value'")
        key, value = line.split("=", 1)
        sections[current].append((n, key.strip(), value.strip()))
    if not sections:
        raise InputError("empty document: no sections found")
    return sections


def _as_map(entries: list[tuple[int, str, str]], section: str) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for n, key, value in entries:
        if key in out:
            raise InputError(f"line {n}: duplicate key '{key}' in [{section}]")
        out[key] = (n, value)
    return out


def _check_fresh(seen: set[str], key: str, n: int, section: str) -> None:
    if key in seen:
        raise InputError(f"line {n}: duplicate key '{key}' in [{section}]")
    seen.add(key)


# -- token helpers ------------------------------------------------------------------


def parse_word(group: FreeProduct, text: str, line: int = 0) -> Word:
    letters = []
    free_index = {name: j for j, name in enumerate(group.free_names)}
    factor_index = {name: i for i, name in enumerate(group.factor_names)}
    for token in text.split():
        if token == "1":
            continue
        if ":" in token:
            fname, _, elem = token.partition(":")
            if fname not in factor_index:
                raise InputError(f"line {line}: unknown factor '{fname}' in word")
            try:
                a = int(elem)
            except ValueError:
                raise InputError(f"line {line}: bad factor element token '{token}'")
            letters.append((FACTOR, factor_index[fname], a))
            continue
        sign = 1
        name = token
        if token.endswith("'"):
            sign = -1
            name = token[:-1]
        if name not in free_index:
            raise InputError(f"line {line}: unknown free letter '{name}'")
        letters.append((FREE, free_index[name], sign))
    try:
        return group.word(letters)
    except InputError as err:
        raise InputError(f"line {line}: {err}")


def parse_path(graph: MarkedMetricGraph, text: str, start: int, line: int = 0) -> GraphPath:
    edge_index = {name: m for m, name in enumerate(graph.edge_names)}
    factor_index = {name: i for i, name in enumerate(graph.group.factor_names)}
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
        if name not in edge_index:
            raise InputError(f"line {line}: unknown edge '{name}' in path")
        d = 2 * edge_index[name] + (1 if reverse else 0)
        if graph.dart_tail(d) != at:
            raise InputError(
                f"line {line}: edge '{token}' does not start at vertex {graph.vertex_names[at]}"
            )
        steps.append((d, 0))
        at = graph.dart_head(d)
        pending_elem_allowed = True
    return GraphPath(graph, start, prefix, tuple(steps))


def _float_str(x: float) -> str:
    return repr(float(x))


# -- document parsing -----------------------------------------------------------------


def parse_document(text: str, name: str = "") -> InputDocument:
    sections = _scan(text)
    if "presentation" not in sections:
        raise InputError("document has no [presentation] section")
    pres = _as_map(sections["presentation"], "presentation")
    free_names = pres.get("free", (0, ""))[1].split()
    factor_names = pres.get("factors", (0, ""))[1].split()
    factors = []
    for fname in factor_names:
        sect = f"factor {fname}"
        if sect not in sections:
            raise InputError(f"missing [factor {fname}] section")
        fmap = _as_map(sections[sect], sect)
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
            rows = [row.split() for row in value.split("/")]
            try:
                table = [[int(x) for x in row] for row in rows]
            except ValueError:
                raise InputError(f"line {n_line}: table entries must be integers")
            factors.append(FiniteGroupTable(table, name=fname))
        else:
            raise InputError(f"[factor {fname}] needs 'cyclic = n' or 'table = ...'")
    budget = 12
    if "search-budget" in pres:
        n_line, value = pres["search-budget"]
        try:
            budget = int(value)
        except ValueError:
            raise InputError(f"line {n_line}: search budget must be an integer")
    group = FreeProduct(factors, len(free_names), free_names or None, search_budget=budget)
    if "relative-generators" in pres:
        n_line, value = pres["relative-generators"]
        words = [parse_word(group, part.strip(), n_line) for part in value.split(",") if part.strip()]
        group.set_relative_generators(words)

    if "graph" not in sections:
        raise InputError("document has no [graph] section")
    gmap = sections["graph"]
    vertex_names: list[str] = []
    base_name = None
    vertex_assignments: dict[str, tuple[int, str]] = {}
    edge_rows: list[tuple[int, str, str]] = []
    marking_rows: dict[str, tuple[int, str]] = {}
    seen: set[str] = set()
    for n, key, value in gmap:
        _check_fresh(seen, key, n, "graph")
        if key == "vertices":
            vertex_names = value.split()
        elif key == "base":
            base_name = value
        elif key.startswith("vertex "):
            vertex_assignments[key.split(None, 1)[1]] = (n, value)
        elif key.startswith("edge "):
            edge_rows.append((n, key.split(None, 1)[1], value))
        elif key.startswith("marking "):
            marking_rows[key.split(None, 1)[1]] = (n, value)
        else:
            raise InputError(f"line {n}: unknown graph key '{key}'")
    if not vertex_names:
        raise InputError("[graph] must declare vertices")
    v_index = {name: i for i, name in enumerate(vertex_names)}
    if base_name is None or base_name not in v_index:
        raise InputError("[graph] must declare a valid base vertex")
    vertex_factor: list[int | None] = [None] * len(vertex_names)
    f_index = {name: i for i, name in enumerate(factor_names)}
    for vname, (n, fname) in vertex_assignments.items():
        if vname not in v_index:
            raise InputError(f"line {n}: unknown vertex '{vname}'")
        if fname not in f_index:
            raise InputError(f"line {n}: unknown factor '{fname}'")
        vertex_factor[v_index[vname]] = f_index[fname]
    edges = []
    edge_names = []
    for n, ename, value in edge_rows:
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
        edge_names.append(ename)
    graph = MarkedMetricGraph(
        group,
        len(vertex_names),
        edges,
        vertex_factor,
        v_index[base_name],
        vertex_names=vertex_names,
        edge_names=edge_names,
    )
    free_marking = []
    for jname in group.free_names:
        if jname not in marking_rows:
            raise InputError(f"[graph] is missing 'marking {jname}'")
        n, value = marking_rows[jname]
        free_marking.append(parse_path(graph, value, graph.base, n))
    factor_marking = []
    for fname in factor_names:
        if fname not in marking_rows:
            raise InputError(f"[graph] is missing 'marking {fname}'")
        n, value = marking_rows[fname]
        factor_marking.append(parse_path(graph, value, graph.base, n))
    graph.free_marking = tuple(free_marking)
    graph.factor_marking = tuple(factor_marking)

    automorphism = _parse_automorphism(sections, "automorphism", group, f_index)
    inverse = _parse_automorphism(sections, "inverse", group, f_index)
    automorphism.inverse = inverse
    inverse.inverse = automorphism

    representative = None
    if "map" in sections:
        representative = _parse_map(
            sections["map"], group, graph, automorphism, v_index, f_index
        )
    return InputDocument(group, graph, automorphism, representative, name)


def _parse_automorphism(sections, section_name, group, f_index) -> Automorphism:
    if section_name not in sections:
        raise InputError(f"document has no [{section_name}] section")
    rows = sections[section_name]
    free_images: dict[str, Word] = {}
    permutation = [None] * len(group.factors)
    isos: list[tuple[int, ...] | None] = [None] * len(group.factors)
    conjugators: list[Word] = [group.identity()] * len(group.factors)
    seen: set[str] = set()
    for n, key, value in rows:
        _check_fresh(seen, key, n, section_name)
        if key.startswith("free "):
            name = key.split(None, 1)[1]
            if name not in group.free_names:
                raise InputError(f"line {n}: unknown free letter '{name}'")
            free_images[name] = parse_word(group, value, n)
        elif key.startswith("factor "):
            name = key.split(None, 1)[1]
            if name not in f_index:
                raise InputError(f"line {n}: unknown factor '{name}'")
            if ":" not in value:
                raise InputError(f"line {n}: expected 'Target : image table'")
            target, _, table_s = value.partition(":")
            target = target.strip()
            if target not in f_index:
                raise InputError(f"line {n}: unknown target factor '{target}'")
            try:
                iso = tuple(int(x) for x in table_s.split())
            except ValueError:
                raise InputError(f"line {n}: iso table entries must be integers")
            permutation[f_index[name]] = f_index[target]
            isos[f_index[name]] = iso
        elif key.startswith("conjugator "):
            name = key.split(None, 1)[1]
            if name not in f_index:
                raise InputError(f"line {n}: unknown factor '{name}'")
            conjugators[f_index[name]] = parse_word(group, value, n)
        else:
            raise InputError(f"line {n}: unknown [{section_name}] key '{key}'")
    images = []
    for name in group.free_names:
        if name not in free_images:
            raise InputError(f"[{section_name}] is missing 'free {name}'")
        images.append(free_images[name])
    for i, fname in enumerate(group.factor_names):
        if permutation[i] is None:
            if len(group.factors) == 0:
                break
            raise InputError(f"[{section_name}] is missing 'factor {fname}'")
    return Automorphism(
        group,
        images,
        permutation if group.factors else None,
        isos if group.factors else None,
        conjugators if group.factors else None,
    )


def _parse_map(rows, group, graph, automorphism, v_index, f_index) -> TopologicalRepresentative:
    vertex_images: list[int | None] = [None] * graph.n_vertices
    twists: dict[int, tuple[int, ...]] = {}
    twist_conjugators: dict[int, int] = {}
    edge_rows: dict[str, tuple[int, str]] = {}
    tether_row: tuple[int, str] | None = None
    seen: set[str] = set()
    for n, key, value in rows:
        _check_fresh(seen, key, n, "map")
        if key.startswith("vertex "):
            name = key.split(None, 1)[1]
            if name not in v_index or value not in v_index:
                raise InputError(f"line {n}: unknown vertex in '{key} = {value}'")
            vertex_images[v_index[name]] = v_index[value]
        elif key.startswith("twist-conjugator "):
            name = key.split(None, 1)[1]
            if name not in v_index:
                raise InputError(f"line {n}: unknown vertex '{name}'")
            fname, _, elem = value.partition(":")
            if fname not in f_index:
                raise InputError(f"line {n}: conjugator must be 'Factor:index'")
            try:
                twist_conjugators[v_index[name]] = int(elem)
            except ValueError:
                raise InputError(f"line {n}: bad conjugator token '{value}'")
        elif key.startswith("twist "):
            name = key.split(None, 1)[1]
            if name not in v_index:
                raise InputError(f"line {n}: unknown vertex '{name}'")
            try:
                twists[v_index[name]] = tuple(int(x) for x in value.split())
            except ValueError:
                raise InputError(f"line {n}: twist table entries must be integers")
        elif key.startswith("edge "):
            edge_rows[key.split(None, 1)[1]] = (n, value)
        elif key == "tether":
            tether_row = (n, value)
        else:
            raise InputError(f"line {n}: unknown map key '{key}'")
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
    if tether_row is None:
        tether = graph.trivial_path(graph.base)
        if vertex_images[graph.base] != graph.base:
            raise InputError("[map] moves the base vertex, so it needs a tether")
    else:
        n, value = tether_row
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


# -- canonical emission ------------------------------------------------------------


def emit_document(doc: InputDocument) -> str:
    group, graph = doc.group, doc.graph
    lines = ["[presentation]"]
    if group.free_names:
        lines.append(f"free = {' '.join(group.free_names)}")
    if group.factor_names:
        lines.append(f"factors = {' '.join(group.factor_names)}")
    if group.relative_generators is not None:
        words = ", ".join(word_str(w) for w in group.relative_generators)
        lines.append(f"relative-generators = {words}")
    if group.search_budget != 12:
        lines.append(f"search-budget = {group.search_budget}")
    for i, table in enumerate(group.factors):
        lines.append(f"[factor {group.factor_names[i]}]")
        cyclic = FiniteGroupTable.cyclic(table.order).product
        if table.product == cyclic:
            lines.append(f"cyclic = {table.order}")
        else:
            rows = " / ".join(" ".join(str(x) for x in row) for row in table.product)
            lines.append(f"table = {rows}")
    lines.append("[graph]")
    lines.append(f"vertices = {' '.join(graph.vertex_names)}")
    lines.append(f"base = {graph.vertex_names[graph.base]}")
    for v, i in enumerate(graph.vertex_factor):
        if i is not None:
            lines.append(f"vertex {graph.vertex_names[v]} = {group.factor_names[i]}")
    for m, (t, h) in enumerate(graph.edge_ends):
        lines.append(
            f"edge {graph.edge_names[m]} = {graph.vertex_names[t]} "
            f"{graph.vertex_names[h]} {_float_str(graph.lengths[m])}"
        )
    for j, p in enumerate(graph.free_marking):
        lines.append(f"marking {group.free_names[j]} = {graph.path_str(p, empty='')}")
    for i, p in enumerate(graph.factor_marking):
        lines.append(f"marking {group.factor_names[i]} = {graph.path_str(p, empty='')}")
    lines += _emit_automorphism("automorphism", doc.automorphism)
    lines += _emit_automorphism("inverse", doc.automorphism.inverse)
    rep = doc.representative
    if rep is not None:
        lines.append("[map]")
        for v in range(graph.n_vertices):
            lines.append(
                f"vertex {graph.vertex_names[v]} = {graph.vertex_names[rep.vertex_images[v]]}"
            )
        for v in sorted(rep.vertex_isos):
            if graph.vertex_factor[v] is None:
                continue
            table = " ".join(str(x) for x in rep.vertex_isos[v])
            lines.append(f"twist {graph.vertex_names[v]} = {table}")
            c = rep.vertex_conjugators.get(v, 0)
            if c:
                i = graph.vertex_factor[rep.vertex_images[v]]
                lines.append(
                    f"twist-conjugator {graph.vertex_names[v]} = {group.factor_names[i]}:{c}"
                )
        for m, ename in enumerate(graph.edge_names):
            lines.append(f"edge {ename} = {graph.path_str(rep.edge_images[m], empty='')}")
        lines.append(f"tether = {graph.path_str(rep.tether, empty='')}")
    return "\n".join(lines) + "\n"


def _emit_automorphism(section: str, auto: Automorphism) -> list[str]:
    group = auto.group
    lines = [f"[{section}]"]
    for j, name in enumerate(group.free_names):
        lines.append(f"free {name} = {word_str(auto.free_images[j])}")
    for i, name in enumerate(group.factor_names):
        target = group.factor_names[auto.permutation[i]]
        table = " ".join(str(x) for x in auto.isos[i])
        lines.append(f"factor {name} = {target} : {table}")
        if auto.conjugators[i].syllables:
            lines.append(f"conjugator {name} = {word_str(auto.conjugators[i])}")
    return lines
