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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError
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
        self.edge_index = {name: m for m, name in enumerate(self.edge_names)}  # for every parsed path
        # darts leaving each vertex, in edge order; ends out of range are left to validate_graph
        darts: list[list[int]] = [[] for _ in range(n_vertices)]
        for m, (t, h) in enumerate(self.edge_ends):
            if 0 <= t < n_vertices:
                darts[t].append(2 * m)
            if 0 <= h < n_vertices:
                darts[h].append(2 * m + 1)
        self._darts_at = tuple(tuple(ds) for ds in darts)
        self._marked: tuple | None = None  # (free marking, factor marking, what was derived from them)

    # -- dart helpers ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    def dart_tail(self, d: int) -> int:
        return self.edge_ends[d >> 1][d & 1]

    def dart_head(self, d: int) -> int:
        return self.edge_ends[d >> 1][1 - (d & 1)]

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

    # -- validity -----------------------------------------------------------

    def tree_paths(self, root: int | None = None) -> list[GraphPath | None]:
        """Paths from ``root`` (default: the base) to each vertex along a breadth-first spanning tree.

        Vertices are visited in the order reached and their darts in
        ``darts_at`` order; a vertex that is not reached gets None.
        """
        root = self.base if root is None else root
        paths: list[GraphPath | None] = [None] * self.n_vertices
        paths[root] = self.trivial_path(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for d in self.darts_at(v):
                u = self.dart_head(d)
                if paths[u] is None:
                    paths[u] = GraphPath(self, root, 0, paths[v].steps + ((d, 0),))
                    queue.append(u)
        return paths

    def connected(self) -> bool:
        """True when the search from vertex 0 reaches every vertex; a base out of range is reported apart."""
        return self.n_vertices > 0 and None not in self.tree_paths(0)

    def marks_like(self, other: MarkedMetricGraph) -> bool:
        """True when ``other`` differs from this graph at most in edge lengths and names."""

        def key(graph):
            marking = tuple((p.start, p.prefix, p.steps) for p in graph.free_marking + graph.factor_marking)
            return (graph.group, graph.n_vertices, graph.edge_ends, graph.vertex_factor, graph.base, marking)

        return other is self or key(other) == key(self)

    def betti_number(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def _per_marking(self, key: str, make: Callable):
        """``make(self)``, computed once for each assignment of the marking paths and kept under key."""
        free, factor, derived = self._marked or (None, None, None)
        if free is not self.free_marking or factor is not self.factor_marking:
            derived = {}
            self._marked = (self.free_marking, self.factor_marking, derived)
        if key not in derived:
            derived[key] = make(self)
        return derived[key]

    def marking_inverter(self) -> MarkingInverter:
        """``MarkingInverter(self)``, folded once for each assignment of the marking paths."""
        return self._per_marking("inverter", MarkingInverter)

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

    Ranks, factor counts, and the endpoints and reducedness of the marking
    paths are checked first.  When they all hold, whether the marking is an
    isomorphism is decided exactly by folding (``marking_inverter``), and a
    marking that is not one is an ``isomorphism`` violation.  The checks run
    once for each assignment of the marking paths; each call returns a
    fresh list.
    """
    return list(graph._per_marking("violations", _graph_violations))


def _graph_violations(graph: MarkedMetricGraph) -> list[Violation]:
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
    if not out:
        try:
            graph.marking_inverter()
        except InputError as err:
            out.append(Violation("isomorphism", str(err)))
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

    The marking paths, each edge labelled by a group word, are wedged at the
    base and folded until the wedge maps one to one onto the graph
    (Stallings, "Topology of finite graphs", 1983; with vertex groups,
    Kapovich-Weidmann-Miasnikov, "Foldings, graphs of groups and the
    membership problem", 2005).  Folds keep the word of every loop at the
    base a preimage of the loop it reads, so the marking is an isomorphism
    exactly when the folded wedge is the graph (up to trees without vertex
    groups), and then the words along a loop's unique lift multiply to its
    unique preimage.  Otherwise ``InputError`` is raised.  Nothing is
    searched: each marking dart is folded away at most once, at the cost of
    a few word products, so the time grows with the marking's length times
    the length of the words it inverts to.  The graph is expected to pass
    ``validate_graph``.
    """

    def __init__(self, graph: MarkedMetricGraph):
        self.graph = graph
        self._tree_paths = graph.tree_paths()
        if None in self._tree_paths:
            raise InputError("graph is not connected")
        self._lift, self._groups = self._fold()

    def tree_path(self, v: int) -> GraphPath:
        return self._tree_paths[v]

    def _fold(self) -> tuple[dict[int, tuple[int, int, Word]], dict[int, dict[int, Word]]]:
        g, G = self.graph, self.graph.group
        one = G.identity()
        not_iso = "the marking is not an isomorphism"
        # Wedge vertex u lies over graph vertex img[u] (None once merged away) and
        # carries the edge ends at[u] and the subgroup K[u] as {element: word},
        # either trivial or the whole vertex group.
        # Edge m has ends 2m and 2m + 1; end i sits at ends[i][0] and leaves over
        # dart ends[i][1] with element ends[i][2]: end 2m reads ``a d b``, with b
        # the inverse of end 2m + 1's element, as the word words[m].
        img, K, at, ends, words = [], [], [], [], []

        def vertex(v):
            img.append(v)
            K.append({0: one})
            at.append(set())
            return len(img) - 1

        def wedge(p, word, end):
            # p's darts as a chain of new edges from the base to ``end``; the first carries ``word``
            u, a = 0, p.prefix
            for n, (d, b) in enumerate(p.steps):
                h = end if n == len(p.steps) - 1 else vertex(g.dart_head(d))
                at[u].add(len(ends))
                at[h].add(len(ends) + 1)
                ends.extend(([u, d, a], [h, d ^ 1, g.vertex_inv(g.dart_head(d), b)]))
                words.append(word if n == 0 else one)
                u, a = h, 0

        def attach(u, group, c, w):
            # K[u] becomes c group c^-1, with each word wa read as w wa w^-1; a vertex meets at
            # most one factor, because two would map their infinite free product into a finite group
            if len(K[u]) > 1:
                raise InputError(not_iso)
            v, ci, wi = img[u], g.vertex_inv(img[u], c), w.inverse()
            K[u] = {g.vertex_mul(v, g.vertex_mul(v, c, a), ci): w * wa * wi for a, wa in group.items()}

        def word(i):
            return words[i >> 1] if i & 1 == 0 else words[i >> 1].inverse()

        def fold(u, i1, i2):
            # ends i1, i2 leave u over one dart with a2 a1^-1 in K[u]: delete i2's edge,
            # re-express its head at i1's head and return that head; never merge the base away
            if ends[i2 ^ 1][0] == 0:
                i1, i2 = i2, i1
            h1, h2 = ends[i1 ^ 1][0], ends[i2 ^ 1][0]
            if h1 == h2:  # lowers the first Betti number, which no fold raises again
                raise InputError(not_iso)
            v, x = img[u], img[h1]
            k = g.vertex_mul(v, ends[i2][2], g.vertex_inv(v, ends[i1][2]))
            # edge 2 reads k (edge 1) c, and c reads delta
            c = g.vertex_mul(x, ends[i1 ^ 1][2], g.vertex_inv(x, ends[i2 ^ 1][2]))
            delta = word(i1).inverse() * K[u][k].inverse() * word(i2)
            at[u].discard(i2)
            at[h2].discard(i2 ^ 1)
            di = delta.inverse()
            for i in at[h2]:
                ends[i][0] = h1
                ends[i][2] = g.vertex_mul(x, c, ends[i][2])
                m = i >> 1
                words[m] = delta * words[m] if i & 1 == 0 else words[m] * di
            at[h1] |= at[h2]
            img[h2] = None
            if len(K[h2]) > 1:
                attach(h1, K[h2], c, delta)
            return h1

        vertex(g.base)
        for j, p in enumerate(g.free_marking):
            wedge(p, G.free(j), 0)  # a loop without darts is left out, and the Betti number tells
        for i, p in enumerate(g.factor_marking):
            # the factor sits at a new vertex, or conjugated by the prefix at the base
            t, x = (vertex(p.end), 0) if p.steps else (0, p.prefix)
            attach(t, {a: G.factor_element(i, a) for a in range(g.vertex_order(p.end))}, x, one)
            wedge(p, one, t)
        todo = list(range(len(img)))
        while todo:
            u = todo.pop()
            if img[u] is None:
                continue
            # ends over one dart fold when their elements agree or K[u] is whole
            first: dict[tuple[int, int], int] = {}
            for i in at[u]:
                _, d, a = ends[i]
                i1 = first.setdefault((d, a if len(K[u]) == 1 else 0), i)
                if i1 != i:
                    todo += [u, fold(u, i1, i)]
                    break

        live = [u for u, v in enumerate(img) if v is not None]
        covered = {img[u] for u in live}
        lift = {ends[i][1]: (ends[i][2], ends[i ^ 1][2], word(i)) for u in live for i in at[u]}
        if (
            len(covered) < len(live)  # two wedge vertices over one graph vertex
            or len(lift) < sum(len(at[u]) for u in live)  # a dart covered twice
            or any(len(K[u]) < g.vertex_order(img[u]) for u in live)  # a vertex group covered in part
            or len(lift) // 2 - len(live) + 1 != g.betti_number()
            or any(f is not None and v not in covered for v, f in enumerate(g.vertex_factor))
        ):
            raise InputError(not_iso)
        return lift, {img[u]: K[u] for u in live}

    def element_of_loop(self, loop: GraphPath) -> Word:
        """The unique group element whose marked image is the given loop at the base."""
        g = self.graph
        if loop.start != g.base or loop.end != g.base:
            raise InputError("marking inversion requires a loop at the base vertex")
        loop = reduce_path(loop)
        # x is the element still to read at v, before the end leaving over the next dart
        v, x, parts = g.base, loop.prefix, []
        for d, e in loop.steps:
            a, far, w = self._lift[d]
            parts += (self._groups[v][g.vertex_mul(v, x, g.vertex_inv(v, a))], w)
            v = g.dart_head(d)
            x = g.vertex_mul(v, far, e)
        parts.append(self._groups[v][x])
        return g.group.word(parts)

    def element_of_loop_at(self, loop: GraphPath) -> Word:
        """As ``element_of_loop`` but for a loop based anywhere, via a tree path."""
        t = self.tree_path(loop.start)
        return self.element_of_loop(t * loop * t.inverse())
