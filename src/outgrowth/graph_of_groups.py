"""Marked metric graphs of groups with trivial edge groups.

A graph is stored as geometric edges; directed edges ("darts") are integers
where dart ``2m`` and ``2m+1`` are the two orientations of geometric edge
``m`` and reversal is ``d ^ 1``.  Paths carry vertex-group elements between
darts, in the path-group sense: ``g0 e1 g1 e2 ... en gn`` with each ``g``
an element of the group sitting at the matching vertex (0 where the vertex
group is trivial).  Reduced paths are unique representatives of path-group
elements because all edge groups are trivial, so path equality is literal
equality of the data.

All tree-level quantities (translation lengths, axes) are computed on this
quotient object; the universal cover is never materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NonConvergenceError
from .free_product import FREE, FreeProduct, Word

#: comparison tolerance for metric equalities; combinatorial facts never use it
LENGTH_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


class GraphPath:
    """A path ``g0 e1 g1 ... en gn`` in a graph of groups.

    ``prefix`` is g0 (an element of the group at the start vertex) and each
    step pairs a dart with the element that follows it.  Paths are immutable.
    """

    __slots__ = ("graph", "start", "prefix", "steps")

    def __init__(
        self,
        graph: MarkedMetricGraph,
        start: int,
        prefix: int = 0,
        steps: tuple[tuple[int, int], ...] = (),
    ):
        self.graph = graph
        self.start = start
        self.prefix = prefix
        self.steps = steps

    @property
    def end(self) -> int:
        if not self.steps:
            return self.start
        return self.graph.dart_head(self.steps[-1][0])

    def darts(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.steps)

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return (
            isinstance(other, GraphPath)
            and self.graph is other.graph
            and self.start == other.start
            and self.prefix == other.prefix
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.start, self.prefix, self.steps))

    def __repr__(self):
        return f"<path {self.graph.path_str(self)}>"

    def is_endpoint_consistent(self) -> bool:
        v = self.start
        for d, _ in self.steps:
            if self.graph.dart_tail(d) != v:
                return False
            v = self.graph.dart_head(d)
        return True

    def __mul__(self, other: GraphPath) -> GraphPath:
        """Concatenation (not reduced); endpoints must match."""
        if other.graph is not self.graph:
            raise InputError("paths live on different graphs")
        if other.start != self.end:
            raise InputError("path endpoints do not match")
        return join_path(self.graph, self.start, ((self.prefix, self.steps), (other.prefix, other.steps)))

    def inverse(self) -> GraphPath:
        g = self.graph
        if not self.steps:
            return GraphPath(g, self.start, g.vertex_inv(self.start, self.prefix), ())
        prefix = g.vertex_inv(self.end, self.steps[-1][1])
        steps = []
        elems = [self.prefix] + [e for _, e in self.steps]
        for i in range(len(self.steps) - 1, -1, -1):
            d = self.steps[i][0]
            steps.append((d ^ 1, g.vertex_inv(g.dart_tail(d), elems[i])))
        return GraphPath(g, self.end, prefix, tuple(steps))

    def is_reduced(self) -> bool:
        for i in range(len(self.steps) - 1):
            d, e = self.steps[i]
            if e == 0 and self.steps[i + 1][0] == d ^ 1:
                return False
        return True

    def reduced(self) -> GraphPath:
        return reduce_path(self)


def join_path(
    graph: MarkedMetricGraph,
    start: int,
    segments: Iterable[tuple[int, tuple[tuple[int, int], ...]]],
) -> GraphPath:
    """Concatenate ``(element, steps)`` segments at ``start`` (not reduced).

    Each segment's leading element multiplies into the element after the
    last dart joined so far, or into the prefix while there is none;
    segments must follow on from one another, which is not checked.
    """
    prefix = 0
    steps: list[tuple[int, int]] = []
    extend = steps.extend  # bound once: this loop is the inner loop of marking and mapping
    for elem, seg in segments:
        if elem:
            if steps:
                d, e = steps[-1]
                steps[-1] = (d, graph.vertex_mul(graph.dart_head(d), e, elem))
            else:
                prefix = graph.vertex_mul(start, prefix, elem)
        extend(seg)
    return GraphPath(graph, start, prefix, tuple(steps))


def reduce_path(p: GraphPath) -> GraphPath:
    """Delete every ``e 1 ebar`` subpath, multiplying the flanking elements.

    Confluent: the result does not depend on deletion order.
    """
    g = p.graph
    prefix = p.prefix
    stack: list[tuple[int, int]] = []
    for d, e in p.steps:
        if stack and stack[-1][1] == 0 and stack[-1][0] == d ^ 1:
            stack.pop()
            if stack:
                pd, pe = stack[-1]
                stack[-1] = (pd, g.vertex_mul(g.dart_head(pd), pe, e))
            else:
                prefix = g.vertex_mul(p.start, prefix, e)
        else:
            stack.append((d, e))
    return GraphPath(g, p.start, prefix, tuple(stack))


def cyclically_reduce(loop: GraphPath) -> tuple[GraphPath, GraphPath]:
    """Return ``(core, conjugator)`` with ``loop = conjugator core conjugator^-1``.

    The loop must be reduced and closed.  The core admits no reduction
    across the seam; a core without darts signals an elliptic element and
    its prefix is the witness vertex-group element.  Peeling one
    conjugating edge rotates the leading edge to the back, where it cancels
    against the old last edge; an index window keeps this linear.
    """
    if loop.start != loop.end:
        raise InputError("cyclic reduction requires a closed path")
    g = loop.graph
    reduced = loop if loop.is_reduced() else reduce_path(loop)
    steps = list(reduced.steps)
    lo, hi = 0, len(steps)
    start = reduced.start
    prefix = reduced.prefix
    conj_steps: list[tuple[int, int]] = []
    conj_prefix = reduced.prefix if steps else 0
    while hi - lo >= 1:
        first_d, first_e = steps[lo]
        last_d, last_e = steps[hi - 1]
        if first_d != last_d ^ 1 or g.vertex_mul(start, last_e, prefix) != 0:
            break
        conj_steps.append((first_d, first_e))
        lo += 1
        hi -= 1
        start = g.dart_head(first_d)
        prefix = 0
        if hi - lo >= 1:
            d, e = steps[hi - 1]
            steps[hi - 1] = (d, g.vertex_mul(g.dart_head(d), e, first_e))
        else:
            prefix = first_e
    core = GraphPath(g, start, prefix, tuple(steps[lo:hi]))
    conj = GraphPath(g, loop.start, conj_prefix if conj_steps else 0, tuple(conj_steps))
    return core, conj


def crossing_counts(path: GraphPath) -> np.ndarray:
    """Unoriented edge crossings of a path: entry i counts edge i."""
    darts = np.fromiter((d for d, _ in path.steps), dtype=np.int64, count=len(path.steps))
    return np.bincount(darts >> 1, minlength=path.graph.n_edges)


class MarkedMetricGraph:
    """A metric graph of groups with a marking by a free product presentation.

    ``edges`` lists geometric edges as ``(tail, head, length)``; vertex
    ``vertex_factor[v]`` is the index of the finite factor carried by ``v``
    (or None).  The marking sends each free generator to a loop at ``base``
    and each factor to a path from ``base`` to its vertex.
    """

    def __init__(
        self,
        group: FreeProduct,
        n_vertices: int,
        edges: Sequence[tuple[int, int, float]],
        vertex_factor: Sequence[int | None],
        base: int,
        free_marking: Sequence[GraphPath] | None = None,
        factor_marking: Sequence[GraphPath] | None = None,
        vertex_names: Sequence[str] | None = None,
        edge_names: Sequence[str] | None = None,
    ):
        self.group = group
        self.n_vertices = n_vertices
        self.edge_ends = tuple((int(t), int(h)) for t, h, _ in edges)
        self.lengths = tuple(float(l) for _, _, l in edges)
        self.vertex_factor = tuple(vertex_factor)
        self.base = base
        self.free_marking = tuple(free_marking) if free_marking is not None else ()
        self.factor_marking = tuple(factor_marking) if factor_marking is not None else ()
        self.vertex_names = (
            tuple(vertex_names)
            if vertex_names is not None
            else tuple(f"v{i}" for i in range(n_vertices))
        )
        self.edge_names = (
            tuple(edge_names)
            if edge_names is not None
            else tuple(f"e{i}" for i in range(len(self.edge_ends)))
        )
        # darts leaving each vertex, in edge order; ends out of range are left to validate_graph
        darts: list[list[int]] = [[] for _ in range(n_vertices)]
        for m, (t, h) in enumerate(self.edge_ends):
            if 0 <= t < n_vertices:
                darts[t].append(2 * m)
            if 0 <= h < n_vertices:
                darts[h].append(2 * m + 1)
        self._darts_at = tuple(tuple(ds) for ds in darts)

    # -- dart helpers ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    def dart_tail(self, d: int) -> int:
        return self.edge_ends[d >> 1][d & 1]

    def dart_head(self, d: int) -> int:
        return self.edge_ends[d >> 1][1 - (d & 1)]

    def dart_length(self, d: int) -> float:
        return self.lengths[d >> 1]

    def darts_at(self, v: int) -> tuple[int, ...]:
        """Darts leaving v, in edge order (a loop gives 2m before 2m + 1)."""
        return self._darts_at[v]

    def dart_str(self, d: int) -> str:
        return self.edge_names[d >> 1] + ("'" if d & 1 else "")

    # -- vertex group helpers --------------------------------------------

    def vertex_table(self, v: int):
        i = self.vertex_factor[v]
        return None if i is None else self.group.factors[i]

    def vertex_order(self, v: int) -> int:
        tbl = self.vertex_table(v)
        return 1 if tbl is None else tbl.order

    def vertex_mul(self, v: int, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        tbl = self.vertex_table(v)
        if tbl is None:
            raise InputError(f"nontrivial element at ungrouped vertex {self.vertex_names[v]}")
        return tbl.mul(a, b)

    def vertex_inv(self, v: int, a: int) -> int:
        if a == 0:
            return 0
        tbl = self.vertex_table(v)
        if tbl is None:
            raise InputError(f"nontrivial element at ungrouped vertex {self.vertex_names[v]}")
        return tbl.inv(a)

    # -- paths -----------------------------------------------------------

    def trivial_path(self, v: int) -> GraphPath:
        return GraphPath(self, v)

    def path(self, start: int, items: Iterable[tuple[int, int]], prefix: int = 0) -> GraphPath:
        return GraphPath(self, start, prefix, tuple(items))

    def path_str(self, p: GraphPath, empty: str = "(trivial)") -> str:
        """The path in document syntax; ``empty`` stands for a path with no darts or element."""
        parts = []
        if p.prefix:
            i = self.vertex_factor[p.start]
            parts.append(f"{self.group.factor_names[i]}:{p.prefix}")
        for d, e in p.steps:
            parts.append(self.dart_str(d))
            if e:
                i = self.vertex_factor[self.dart_head(d)]
                parts.append(f"{self.group.factor_names[i]}:{e}")
        return " ".join(parts) if parts else empty

    def path_length(self, p: GraphPath) -> float:
        """Sum over edges of crossings times length, correctly rounded (no drift on long paths)."""
        return self.counts_length(crossing_counts(p).tolist())

    def counts_length(self, counts: Sequence[int]) -> float:
        """Length of a path crossing edge i ``counts[i]`` times, as ``path_length`` sums it.

        Raises OverflowError when a count is too large for a float.
        """
        return math.fsum(c * l for c, l in zip(counts, self.lengths))

    # -- marking ----------------------------------------------------------

    def loop_of_element(self, w: Word) -> GraphPath:
        """Reduced loop at the base representing the marked image of w."""

        free, factor = self.free_marking, self.factor_marking

        def segments():
            for tag, x, y in w.syllables:
                if tag == FREE:
                    loop = free[x] if y == 1 else free[x].inverse()
                    yield loop.prefix, loop.steps
                else:
                    path = factor[x]
                    back = path.inverse()
                    yield path.prefix, path.steps
                    yield y, ()
                    yield back.prefix, back.steps

        return reduce_path(join_path(self, self.base, segments()))

    def translation_length(self, w: Word) -> float:
        """Length of the cyclically reduced loop of w; 0 exactly when elliptic."""
        core, _ = cyclically_reduce(self.loop_of_element(w))
        return self.path_length(core)

    def elliptic_witness(self, w: Word) -> int | None:
        """For elliptic w, the vertex-group element its loop collapses to."""
        core, _ = cyclically_reduce(self.loop_of_element(w))
        return core.prefix if not core.steps else None

    # -- validity -----------------------------------------------------------

    def connected(self) -> bool:
        if self.n_vertices == 0:
            return False
        seen = {0}
        stack = [0]
        adj: dict[int, list[int]] = {v: [] for v in range(self.n_vertices)}
        for t, h in self.edge_ends:
            adj[t].append(h)
            adj[h].append(t)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n_vertices

    def marks_like(self, other: MarkedMetricGraph) -> bool:
        """True when ``other`` differs from this graph at most in edge lengths and names."""

        def key(graph):
            marking = tuple((p.start, p.prefix, p.steps) for p in graph.free_marking + graph.factor_marking)
            return (graph.group, graph.n_vertices, graph.edge_ends, graph.vertex_factor, graph.base, marking)

        return other is self or key(other) == key(self)

    def betti_number(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def with_lengths(self, lengths: Sequence[float]) -> MarkedMetricGraph:
        """Copy of this graph with new edge lengths (combinatorics unchanged)."""
        if len(lengths) != self.n_edges:
            raise InputError("one length required per geometric edge")
        other = MarkedMetricGraph(
            self.group,
            self.n_vertices,
            [(t, h, l) for (t, h), l in zip(self.edge_ends, lengths)],
            self.vertex_factor,
            self.base,
            vertex_names=self.vertex_names,
            edge_names=self.edge_names,
        )
        # marking paths are combinatorial; rebind them to this copy
        other.free_marking = tuple(
            GraphPath(other, p.start, p.prefix, p.steps) for p in self.free_marking
        )
        other.factor_marking = tuple(
            GraphPath(other, p.start, p.prefix, p.steps) for p in self.factor_marking
        )
        return other


def validate_graph(graph: MarkedMetricGraph) -> list[Violation]:
    """Structural diagnostics; an empty list means the graph is valid.

    The marking is certified at the level of rank and factor counts (a full
    isomorphism check is a word problem); reducedness and endpoints of the
    marking paths are checked exactly.
    """
    G = graph.group
    for t, h in graph.edge_ends:
        if not (0 <= t < graph.n_vertices and 0 <= h < graph.n_vertices):
            return [Violation("bad edge", f"edge endpoints ({t},{h}) out of range")]
    out: list[Violation] = []
    if not graph.connected():
        out.append(Violation("disconnected", "underlying graph is not connected"))
    if graph.betti_number() != G.free_rank:
        out.append(
            Violation(
                "rank mismatch",
                f"first Betti number {graph.betti_number()} != free rank {G.free_rank}",
            )
        )
    for m, length in enumerate(graph.lengths):
        if not length > 0:
            out.append(
                Violation("non-metric edge", f"edge {graph.edge_names[m]} has length {length}")
            )
    if not 0 <= graph.base < graph.n_vertices:
        out.append(Violation("bad base", f"base vertex {graph.base} out of range"))
        return out
    assigned: dict[int, int] = {}
    for v, i in enumerate(graph.vertex_factor):
        if i is None:
            continue
        if not 0 <= i < len(G.factors):
            out.append(Violation("bad factor", f"vertex {graph.vertex_names[v]} carries unknown factor {i}"))
        elif i in assigned.values():
            out.append(Violation("duplicate factor", f"factor {G.factor_names[i]} assigned twice"))
        else:
            assigned[v] = i
    if len(assigned) != len(G.factors):
        out.append(
            Violation(
                "missing factor",
                f"{len(assigned)} of {len(G.factors)} factors assigned to vertices",
            )
        )
    if len(graph.free_marking) != G.free_rank:
        out.append(Violation("marking", "one marking loop required per free generator"))
    if len(graph.factor_marking) != len(G.factors):
        out.append(Violation("marking", "one marking path required per factor"))
    for j, p in enumerate(graph.free_marking):
        name = G.free_names[j]
        if p.start != graph.base or p.end != graph.base:
            out.append(Violation("marking", f"marking of {name} is not a loop at the base"))
        elif not p.is_endpoint_consistent():
            out.append(Violation("marking", f"marking of {name} is not a path"))
        elif not p.is_reduced():
            out.append(Violation("marking", f"marking of {name} is not reduced"))
    factor_vertex = {i: v for v, i in assigned.items()}
    for i, p in enumerate(graph.factor_marking):
        name = G.factor_names[i] if i < len(G.factor_names) else str(i)
        target = factor_vertex.get(i)
        if p.start != graph.base or (target is not None and p.end != target):
            out.append(Violation("marking", f"marking of {name} does not join base to its vertex"))
        elif not p.is_endpoint_consistent():
            out.append(Violation("marking", f"marking of {name} is not a path"))
        elif not p.is_reduced():
            out.append(Violation("marking", f"marking of {name} is not reduced"))
    return out


def standard_rose(group: FreeProduct) -> MarkedMetricGraph:
    """The standard marked graph: r unit petals and k half-length spokes.

    With these lengths the translation length of every hyperbolic element
    equals its relative conjugacy length over the free basis.
    """
    r, k = group.free_rank, len(group.factors)
    edges = [(0, 0, 1.0) for _ in range(r)] + [(0, 1 + i, 0.5) for i in range(k)]
    graph = MarkedMetricGraph(
        group,
        1 + k,
        edges,
        [None] + list(range(k)),
        base=0,
        vertex_names=["v0"] + [f"v{group.factor_names[i]}" for i in range(k)],
        edge_names=list(group.free_names) + [f"s{group.factor_names[i]}" for i in range(k)],
    )
    graph.free_marking = tuple(graph.path(0, [(2 * j, 0)]) for j in range(r))
    graph.factor_marking = tuple(graph.path(0, [(2 * (r + i), 0)]) for i in range(k))
    return graph


class MarkingInverter:
    """Translate reduced loops at the base back into group elements.

    A spanning tree turns the fundamental group of the graph of groups into
    a standard basis: one loop generator per non-tree edge and one
    conjugated copy of each vertex group.  Each basis loop is matched to a
    group word by a breadth-first search through marked images; decomposing
    an arbitrary reduced loop over the basis and substituting those words
    inverts the marking.  The search honours the presentation's budget and
    reports non-convergence instead of guessing.
    """

    def __init__(self, graph: MarkedMetricGraph, budget: int = 6, cap: int = 200_000):
        self.graph = graph
        self.budget = budget
        self.cap = cap
        self._tree_paths = self._spanning_tree()
        self._basis = self._basis_words()

    def _spanning_tree(self) -> list[GraphPath]:
        g = self.graph
        paths: list[GraphPath | None] = [None] * g.n_vertices
        paths[g.base] = g.trivial_path(g.base)
        queue = [g.base]
        while queue:
            v = queue.pop(0)
            for d in g.darts_at(v):
                u = g.dart_head(d)
                if paths[u] is None:
                    paths[u] = paths[v] * GraphPath(g, v, 0, ((d, 0),))
                    queue.append(u)
        if any(p is None for p in paths):
            raise InputError("graph is not connected")
        return paths

    def tree_path(self, v: int) -> GraphPath:
        return self._tree_paths[v]

    def _basis_loop(self, dart: int) -> GraphPath:
        g = self.graph
        step = GraphPath(g, g.dart_tail(dart), 0, ((dart, 0),))
        return reduce_path(self.tree_path(g.dart_tail(dart)) * step * self.tree_path(g.dart_head(dart)).inverse())

    def _vertex_loop(self, v: int, a: int) -> GraphPath:
        g = self.graph
        mid = GraphPath(g, v, a, ())
        return reduce_path(self.tree_path(v) * mid * self.tree_path(v).inverse())

    def _tree_darts(self) -> set[int]:
        g = self.graph
        darts = set()
        for v in range(g.n_vertices):
            for d, _ in self._tree_paths[v].steps:
                darts.add(d)
                darts.add(d ^ 1)
        return darts

    def _basis_words(self) -> dict[GraphPath, Word]:
        g, G = self.graph, self.graph.group
        tree = self._tree_darts()
        targets: dict[GraphPath, None] = {}
        self._nontree_loop: dict[int, GraphPath] = {}
        for m in range(g.n_edges):
            if 2 * m not in tree:
                loop = self._basis_loop(2 * m)
                self._nontree_loop[2 * m] = loop
                targets[loop] = None
        self._vertex_loops: dict[tuple[int, int], GraphPath] = {}
        for v in range(g.n_vertices):
            for a in range(1, g.vertex_order(v)):
                loop = self._vertex_loop(v, a)
                self._vertex_loops[(v, a)] = loop
                targets[loop] = None
        found: dict[GraphPath, Word] = {}
        alphabet = [G.free(j, s) for j in range(G.free_rank) for s in (1, -1)]
        alphabet += [
            G.factor_element(i, a)
            for i in range(len(G.factors))
            for a in range(1, G.factors[i].order)
        ]
        seen: dict[Word, GraphPath] = {G.identity(): g.loop_of_element(G.identity())}
        frontier = [G.identity()]
        depth = 0
        while targets.keys() - found.keys() and frontier and depth < self.budget:
            depth += 1
            nxt = []
            for w in frontier:
                base_loop = seen[w]
                for s in alphabet:
                    ws = w * s
                    if ws in seen:
                        continue
                    if len(seen) > self.cap:
                        raise NonConvergenceError(
                            f"marking inversion exceeded {self.cap} candidate words"
                        )
                    loop = reduce_path(base_loop * g.loop_of_element(s))
                    seen[ws] = loop
                    nxt.append(ws)
                    if loop in targets and loop not in found:
                        found[loop] = ws
            frontier = nxt
        missing = [loop for loop in targets if loop not in found]
        if missing:
            raise NonConvergenceError(
                f"marking inversion: {len(missing)} basis loop(s) not matched within budget {self.budget}"
            )
        return found

    def element_of_loop(self, loop: GraphPath) -> Word:
        """The group element whose marked image is the given reduced loop at base."""
        g, G = self.graph, self.graph.group
        if loop.start != g.base or loop.end != g.base:
            raise InputError("marking inversion requires a loop at the base vertex")
        loop = reduce_path(loop)
        parts: list[Word] = []
        if loop.prefix:
            parts.append(self._basis[self._vertex_loops[(g.base, loop.prefix)]])
        for d, e in loop.steps:
            if d in self._nontree_loop:
                parts.append(self._basis[self._nontree_loop[d]])
            elif (d ^ 1) in self._nontree_loop:
                parts.append(self._basis[self._nontree_loop[d ^ 1]].inverse())
            if e:
                parts.append(self._basis[self._vertex_loops[(g.dart_head(d), e)]])
        word = G.identity()
        for p in parts:
            word = word * p
        return word

    def element_of_loop_at(self, loop: GraphPath) -> Word:
        """As ``element_of_loop`` but for a loop based anywhere, via a tree path."""
        t = self.tree_path(loop.start)
        return self.element_of_loop(t * loop * t.inverse())
