"""Turn calculus: derivatives of directions, legality, train track properties.

A direction at a vertex is an outgoing dart together with a vertex-group
twist; a turn is an unordered pair of directions, normalised under the
simultaneous left action of the vertex group so that one twist is the
identity.  The derivative ``Df`` sends a direction to the first direction
of its image path, twisting the group element through the map's vertex
isomorphism and composing it with the image's leading element, so that a
degenerate image turn is exactly a cancellation in the image.  With finite
vertex groups ``Df`` is a function on finitely many directions, and
legality is decided exactly (Bestvina-Handel 1992): a turn is illegal when
some power of ``Df`` sends its two directions to the same direction.  The
classes of directions that end up together are the gates.

Relative train track injectivity is not decided exactly: the search walks
every reduced connecting path up to a bound, so its verdict holds "up to
the bound".  Paths that share a prefix share that prefix's tightened
image, and each path extends its parent's image by one dart's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, NonConvergenceError
from .free_product import Word
from .graph_of_groups import GraphPath, MarkedMetricGraph, MarkingInverter, reduce_path
from .graph_map import TopologicalRepresentative, r_length

Direction = tuple[int, int]  # (outgoing dart, vertex-group twist)


class Turn(NamedTuple):
    # a named tuple hashes and compares in C: turns key the memo and sort the enumeration
    vertex: int
    directions: tuple[Direction, Direction]

    @property
    def degenerate(self) -> bool:
        return self.directions[0] == self.directions[1]

    def edges(self) -> tuple[int, int]:
        return (self.directions[0][0] >> 1, self.directions[1][0] >> 1)


def make_turn(graph: MarkedMetricGraph, v: int, d1: Direction, d2: Direction) -> Turn:
    """Normalise an unordered pair of directions at v by the left group action."""
    tbl = graph.vertex_table(v)
    if tbl is None:
        return Turn(v, tuple(sorted((d1, d2))))
    (e1, g1), (e2, g2) = d1, d2
    cand1 = tuple(sorted(((e1, 0), (e2, tbl.mul(tbl.inv(g1), g2)))))
    cand2 = tuple(sorted(((e1, tbl.mul(tbl.inv(g2), g1)), (e2, 0))))
    return Turn(v, min(cand1, cand2))


def enumerate_turns(graph: MarkedMetricGraph) -> list[Turn]:
    """All turns of the graph, one representative per vertex-group orbit."""
    turns: set[Turn] = set()
    for v in range(graph.n_vertices):
        dirs = [
            (d, g) for d in graph.darts_at(v) for g in range(graph.vertex_order(v))
        ]
        for i, d1 in enumerate(dirs):
            for d2 in dirs[i:]:
                turns.add(make_turn(graph, v, d1, d2))
    return sorted(turns)


def _derivative_direction(rep: TopologicalRepresentative, v: int, direction: Direction) -> Direction:
    """Df on one direction at v: the first dart of its image path, twisted."""
    d, tw = direction
    img = rep.image_dart(d)
    if not img.steps:
        raise InputError(f"edge {rep.graph.edge_names[d >> 1]} maps to a point")
    twist = rep.graph.vertex_mul(rep.vertex_images[v], rep.image_element(v, tw), img.prefix)
    return img.steps[0][0], twist


def derivative_turn(rep: TopologicalRepresentative, turn: Turn) -> Turn:
    """Image turn: each direction goes to the initial direction of its image path."""
    v = turn.vertex
    d1, d2 = (_derivative_direction(rep, v, x) for x in turn.directions)
    return make_turn(rep.graph, rep.vertex_images[v], d1, d2)


@dataclass
class TurnEntry:
    turn: Turn
    legal: bool
    degenerate: bool
    steps_to_degeneracy: int | None


class LegalityTable:
    """Turn legality from the gates of the derivative, memoised in ``entries``.

    ``Df`` is tabulated on directions numbered vertex by vertex.  It is
    injective on its periodic directions, so two directions that ever meet
    meet within as many steps as there are directions, and ``gate``, a power
    of ``Df`` at least that count, joins exactly those.  A turn is legal when
    its directions have different gates, and otherwise its
    ``steps_to_degeneracy`` counts the steps until they meet.  An edge
    mapping to a point has no derivative and raises ``InputError``.
    """

    def __init__(self, rep: TopologicalRepresentative):
        self.rep = rep
        self.entries: dict[Turn, TurnEntry] = {}
        g = rep.graph
        directions = [
            (d, tw) for v in range(g.n_vertices) for d in g.darts_at(v) for tw in range(g.vertex_order(v))
        ]
        self._index = index = {x: i for i, x in enumerate(directions)}
        self._df = df = [index[_derivative_direction(rep, g.dart_tail(x[0]), x)] for x in directions]
        gate = df
        for _ in range(len(df).bit_length()):
            gate = [gate[i] for i in gate]
        self._gate = gate

    def entry(self, turn: Turn) -> TurnEntry:
        """The turn's entry, deciding it first if it is new."""
        entry = self.entries.get(turn)
        if entry is None:
            x, y = (self._index[d] for d in turn.directions)
            if self._gate[x] != self._gate[y]:
                entry = TurnEntry(turn, True, False, None)
            else:
                steps = 0
                while x != y:
                    x, y, steps = self._df[x], self._df[y], steps + 1
                entry = TurnEntry(turn, False, turn.degenerate, steps)
            self.entries[turn] = entry
        return entry

    def legal(self, turn: Turn) -> bool:
        return self.entry(turn).legal

    def __iter__(self):
        return iter(self.entries.values())

    def __len__(self):
        return len(self.entries)


def classify_turns(rep: TopologicalRepresentative) -> LegalityTable:
    """A fresh table holding every turn, decided in enumeration order."""
    table = LegalityTable(rep)
    for turn in enumerate_turns(rep.graph):
        table.entry(turn)
    return table


# -- turns along paths ---------------------------------------------------------


def path_turns(graph: MarkedMetricGraph, p: GraphPath) -> list[Turn]:
    """The turns taken at the interior vertices of a path."""
    out = []
    for i in range(len(p.steps) - 1):
        d, e = p.steps[i]
        d2, _ = p.steps[i + 1]
        out.append(make_turn(graph, graph.dart_head(d), (d ^ 1, 0), (d2, e)))
    return out


def loop_seam_turn(graph: MarkedMetricGraph, loop: GraphPath) -> Turn:
    """The turn a loop takes across its base point."""
    if loop.start != loop.end or not loop.steps:
        raise InputError("seam turn requires a closed path with at least one dart")
    dn, en = loop.steps[-1]
    d1, _ = loop.steps[0]
    seam = graph.vertex_mul(loop.start, en, loop.prefix)
    return make_turn(graph, loop.start, (dn ^ 1, 0), (d1, seam))


def is_legal_path(rep: TopologicalRepresentative, table: LegalityTable, p: GraphPath) -> Turn | None:
    """First illegal turn of the path, or None when the path is legal."""
    for t in path_turns(rep.graph, p):
        if not table.legal(t):
            return t
    return None


def is_r_legal(
    rep: TopologicalRepresentative,
    p: GraphPath,
    r: int,
    table: LegalityTable | None = None,
    cyclic: bool = False,
) -> bool:
    """True when every turn of p with both edges in stratum r is legal.

    With ``cyclic=True`` the seam turn of a closed path is included.
    """
    table = table if table is not None else rep.legality()
    stratum_of = rep.strata().stratum_of
    turns = path_turns(rep.graph, p)
    if cyclic and p.steps:
        turns.append(loop_seam_turn(rep.graph, p))
    return all(_turn_r_ok(table, stratum_of, r, t) for t in turns)


def _turn_r_ok(table: LegalityTable, stratum_of, r: int, t: Turn) -> bool:
    e1, e2 = t.edges()
    if stratum_of[e1] == r == stratum_of[e2]:
        return table.legal(t)
    return True


# -- train track verification -----------------------------------------------


@dataclass
class TrainTrackVerdict:
    ok: bool
    witness_edge: int | None = None
    witness_turn: Turn | None = None

    def __bool__(self):
        return self.ok


def verify_train_track(
    rep: TopologicalRepresentative, table: LegalityTable | None = None
) -> TrainTrackVerdict:
    """Check that the image of every edge is a legal path.

    Single edges contain no turns, so this is the operative content of
    "every edge is legal": iterated images never cancel.
    """
    table = table if table is not None else rep.legality()
    for m in range(rep.graph.n_edges):
        bad = is_legal_path(rep, table, rep.edge_images[m])
        if bad is not None:
            return TrainTrackVerdict(False, m, bad)
    return TrainTrackVerdict(True)


@dataclass
class RttStratumVerdict:
    stratum: int
    growing: bool
    germs_ok: bool | None = None
    germ_witness: int | None = None
    legality_ok: bool | None = None
    legality_witness: Turn | None = None
    injectivity_ok: bool | None = None
    injectivity_witness: GraphPath | None = None
    injectivity_bound: int | None = None
    paths_checked: int | None = None

    @property
    def ok(self) -> bool:
        if not self.growing:
            return True
        return bool(self.germs_ok and self.legality_ok and self.injectivity_ok)


def verify_rtt(
    rep: TopologicalRepresentative,
    path_bound: int | None = None,
    max_paths: int = 200_000,
) -> list[RttStratumVerdict]:
    """Verify the three relative-train-track properties on every growing stratum.

    Germ preservation and r-legal edge images are exact; the derivative then
    keeps r-legal turns r-legal, as legal turns have legal images and images
    only descend.  Injectivity on connecting paths in the lower filtration
    is checked for all reduced decorated paths up to ``path_bound`` darts
    (default: twice the edge count), so that verdict is "verified up to the
    bound".  Paths that share a prefix share its tightened image, so each
    path costs only the image of its last dart.  A search that meets
    ``max_paths`` raises ``NonConvergenceError`` whose ``best`` holds the
    verdicts decided so far plus the stratum that ran out, with
    ``injectivity_ok`` None and ``paths_checked`` equal to ``max_paths``.
    """
    g = rep.graph
    dec = rep.strata()
    table = rep.legality()
    bound = path_bound if path_bound is not None else 2 * g.n_edges
    stratum_of = dec.stratum_of
    verdicts = []
    for s in dec.strata:
        v = RttStratumVerdict(s.index, s.growing)
        if not s.growing:
            verdicts.append(v)
            continue
        r = s.index
        # (1) r-germs: images of stratum edges begin and end in the stratum
        v.germs_ok = True
        for e in s.edges:
            img = rep.edge_images[e]
            first = img.steps[0][0] >> 1
            last = img.steps[-1][0] >> 1
            if stratum_of[first] != r or stratum_of[last] != r:
                v.germs_ok = False
                v.germ_witness = e
                break
        # (3) r-legality: images of stratum edges are r-legal
        v.legality_ok = True
        for e in s.edges:
            if not is_r_legal(rep, rep.edge_images[e], r, table):
                v.legality_ok = False
                v.legality_witness = is_legal_path(rep, table, rep.edge_images[e])
                break
        # (2) injectivity on connecting paths through the lower filtration
        v.injectivity_bound = bound
        try:
            counterexample, checked = _rtt_injectivity(rep, dec, r, bound, max_paths)
        except NonConvergenceError as err:
            # best so far: the strata decided, and this one with injectivity undecided
            v.paths_checked = max_paths
            err.best = verdicts + [v]
            raise
        v.injectivity_ok = counterexample is None
        v.injectivity_witness = counterexample
        v.paths_checked = checked
        verdicts.append(v)
    return verdicts


def _rtt_injectivity(rep, dec, r, bound, max_paths):
    """Search T_{r-1} connecting paths whose image collapses; returns (witness, count).

    Depth first over the reduced decorated paths from the endpoints, the
    children of a path pushed in (dart, element) order.  A child extends
    its parent by one dart, so its tightened image extends the parent's:
    an image is a prefix element plus a persistent stack of
    ``(dart, element, below)`` cells, and extending by ``d e`` tightens
    ``f(d)`` and the twisted ``e`` onto the parent's stack in O(|f(d)|),
    sharing every cell below.  Paths are parent-linked chains
    ``(parent, dart, element)`` under a root ``(None, start, prefix)``; only
    a witness becomes a ``GraphPath``.
    """
    g = rep.graph
    if r <= 1:
        return None, 0
    lower_edges = dec.filtration(r - 1)
    stratum_edges = set(dec.strata[r - 1].edges)
    touches_high = set()
    touches_low = set()
    for m in range(g.n_edges):
        t, h = g.edge_ends[m]
        if m in stratum_edges:
            touches_high.update((t, h))
        if m in lower_edges:
            touches_low.update((t, h))
    endpoints = touches_high & touches_low
    if not endpoints:
        return None, 0
    mul, head = g.vertex_mul, g.dart_head
    # per vertex: (dart, element, head, image prefix, image steps, twisted element)
    extensions = []
    for v in range(g.n_vertices):
        row = []
        for d in g.darts_at(v):
            if (d >> 1) not in lower_edges:
                continue
            h = head(d)
            img = rep.image_dart(d)
            for e in range(g.vertex_order(h)):
                row.append((d, e, h, img.prefix, img.steps, rep.image_element(h, e)))
        extensions.append(tuple(row))
    at_endpoint = [v in endpoints for v in range(g.n_vertices)]

    def join(start, prefix, top, elem):
        # the element after the last dart of the image, or its prefix while there is none
        if top is None:
            return mul(start, prefix, elem), None
        d, e, below = top
        return prefix, (d, mul(head(d), e, elem), below)

    checked = 0
    # (path, length, end, dart that would backtrack, image start, image prefix, image stack)
    stack = []
    for v in sorted(endpoints):
        start = rep.vertex_images[v]
        for pre in range(g.vertex_order(v)):
            stack.append(((None, v, pre), 0, v, -1, start, rep.image_element(v, pre), None))
    while stack:
        path, length, end, back, start, prefix, top = stack.pop()
        if length and at_endpoint[end]:
            checked += 1
            if checked > max_paths:
                raise NonConvergenceError(
                    f"injectivity search exceeded {max_paths} candidate paths"
                )
            if top is None and prefix == 0:
                steps = []
                while path[0] is not None:
                    path, d, e = path
                    steps.append((d, e))
                return GraphPath(g, path[1], path[2], tuple(reversed(steps))), checked
        if length >= bound:
            continue
        for d, e, h, img_prefix, img_steps, twist in extensions[end]:
            if d == back:
                continue
            p, t = join(start, prefix, top, img_prefix) if img_prefix else (prefix, top)
            for sd, se in img_steps:
                if t is not None and t[1] == 0 and t[0] == sd ^ 1:
                    t = t[2]
                    if se:
                        p, t = join(start, p, t, se)
                else:
                    t = (sd, se, t)
            if twist:
                p, t = join(start, p, t, twist)
            stack.append(((path, d, e), length + 1, h, -1 if e else d ^ 1, start, p, t))
    return None, checked


# -- producing legal hyperbolic elements ----------------------------------------


def find_r_legal_hyperbolic(
    rep: TopologicalRepresentative,
    r: int,
    iteration_cap: int = 16,
    inverter: MarkingInverter | None = None,
    loop_bound: int | None = None,
) -> Word:
    """An r-legal hyperbolic element meeting stratum r.

    First iterates the map on stratum edges and looks for closed subpaths
    of the reduced images whose element is hyperbolic and whose loop is
    r-legal (seam included).  Permutation-like strata whose edge images
    never close up fall back to a direct breadth-first search for r-legal
    loops in the filtration.  The element g returned scales exactly:
    the stratum length of g alpha^k is mu_r^k times that of g.
    """
    g = rep.graph
    dec = rep.strata()
    if not 1 <= r <= dec.count:
        raise InputError(f"no stratum {r}")
    stratum = dec.strata[r - 1]
    if not stratum.growing:
        raise InputError(f"stratum {r} is a zero stratum")
    table = rep.legality()
    inverter = inverter if inverter is not None else MarkingInverter(g)
    longest_legal: GraphPath | None = None

    for e in stratum.edges:
        path = GraphPath(g, g.dart_tail(2 * e), 0, ((2 * e, 0),))
        for _ in range(iteration_cap):
            path = reduce_path(rep.map_path(path))
            if longest_legal is None or len(path.steps) > len(longest_legal.steps):
                if is_legal_path(rep, table, path) is None:
                    longest_legal = path
            vertices = [path.start] + [g.dart_head(d) for d, _ in path.steps]
            n = len(path.steps)
            for span in range(1, n + 1):
                for i in range(0, n - span + 1):
                    j = i + span
                    if vertices[i] != vertices[j]:
                        continue
                    steps = list(path.steps[i:j])
                    steps[-1] = (steps[-1][0], 0)
                    loop = GraphPath(g, vertices[i], 0, tuple(steps))
                    word = _accept_loop(rep, r, table, inverter, loop)
                    if word is not None:
                        return word

    word = _legal_loop_search(rep, r, table, inverter, loop_bound)
    if word is not None:
        return word
    raise NonConvergenceError(
        f"no r-legal hyperbolic element found for stratum {r} within the caps",
        best=longest_legal,
    )


def _accept_loop(rep, r, table, inverter, loop: GraphPath) -> Word | None:
    """The element of a closed path that can answer ``find_r_legal_hyperbolic``, or None.

    Such a loop is cyclically reduced, meets stratum r, is cyclically
    r-legal and carries a hyperbolic element.
    """
    (dn, en), d1 = loop.steps[-1], loop.steps[0][0]
    if dn ^ 1 == d1 and rep.graph.vertex_mul(loop.start, en, loop.prefix) == 0:
        return None
    if r_length(rep, loop, r) <= 0 or not is_r_legal(rep, loop, r, table, cyclic=True):
        return None
    word = inverter.element_of_loop_at(loop)
    return word if word.is_hyperbolic() else None


def _legal_loop_search(rep, r, table, inverter, loop_bound, max_nodes: int = 200_000):
    """Breadth-first search for an r-legal hyperbolic loop in the filtration T_r."""
    g = rep.graph
    dec = rep.strata()
    allowed = dec.filtration(r)
    bound = loop_bound if loop_bound is not None else 2 * g.n_edges + 2
    stratum_edges = set(dec.strata[r - 1].edges)
    frontier: list[GraphPath] = []
    for e in sorted(stratum_edges):
        for d in (2 * e, 2 * e + 1):
            for elem in range(g.vertex_order(g.dart_head(d))):
                frontier.append(GraphPath(g, g.dart_tail(d), 0, ((d, elem),)))
    seen = 0
    while frontier:
        next_frontier = []
        for p in frontier:
            seen += 1
            if seen > max_nodes:
                return None
            if p.end == p.start:
                word = _accept_loop(rep, r, table, inverter, p)
                if word is not None:
                    return word
            if len(p.steps) >= bound:
                continue
            last_d, last_e = p.steps[-1]
            for d in g.darts_at(p.end):
                if (d >> 1) not in allowed:
                    continue
                if last_e == 0 and d == last_d ^ 1:
                    continue
                turn = make_turn(g, p.end, (last_d ^ 1, 0), (d, last_e))
                if not _turn_r_ok(table, dec.stratum_of, r, turn):
                    continue
                for elem in range(g.vertex_order(g.dart_head(d))):
                    next_frontier.append(GraphPath(g, p.start, p.prefix, p.steps + ((d, elem),)))
        frontier = next_frontier
    return None
