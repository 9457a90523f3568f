"""Turn calculus: derivatives of directions, legality, train track properties.

A direction at a vertex is an outgoing dart together with a vertex-group
twist; a turn is an unordered pair of directions, normalised under the
simultaneous left action of the vertex group so that one twist is the
identity.  With finite vertex groups the set of turns is finite, every
derivative orbit is eventually periodic, and legality is decided exactly:
a turn is illegal when some derivative iterate is degenerate (two equal
directions), legal otherwise.  Tables decide turns on demand, so checking
a few paths follows only the orbits those paths meet.

The derivative of a direction twists the group element through the map's
vertex isomorphism and composes it with the leading element of the image
path, so that a degenerate derivative is exactly a cancellation in the
image: a path is mapped without cancellation precisely when its turns have
nondegenerate images all along their orbits.
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
    # a named tuple hashes and compares in C: following a derivative orbit hashes every turn on it
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


def derivative_turn(rep: TopologicalRepresentative, turn: Turn) -> Turn:
    """Image turn: each direction goes to the initial direction of its image path."""
    g = rep.graph
    v = turn.vertex
    image_v = rep.vertex_images[v]
    new_dirs = []
    for d, tw in turn.directions:
        img = rep.image_dart(d)
        first = img.steps[0][0]
        twist = g.vertex_mul(image_v, rep.image_element(v, tw), img.prefix)
        new_dirs.append((first, twist))
    return make_turn(g, image_v, new_dirs[0], new_dirs[1])


@dataclass
class TurnEntry:
    turn: Turn
    legal: bool
    degenerate: bool
    steps_to_degeneracy: int | None


class LegalityTable:
    """Turn legality, decided on demand and memoised in ``entries``.

    Looking up an undecided turn follows its derivative orbit until the
    orbit degenerates, repeats without degenerating, or meets a decided
    turn, and records every turn met on the way.
    """

    def __init__(self, rep: TopologicalRepresentative):
        self.rep = rep
        self.entries: dict[Turn, TurnEntry] = {}

    def entry(self, turn: Turn) -> TurnEntry:
        """The turn's entry, deciding it and the undecided turns on its orbit first."""
        entries = self.entries
        if turn in entries:
            return entries[turn]
        chain: list[Turn] = []
        on_chain: set[Turn] = set()
        node = turn
        while node not in entries:
            if node.degenerate:
                entries[node] = TurnEntry(node, False, True, 0)
                break
            if node in on_chain:
                # periodic orbit with no degeneracy: everything on the chain is legal
                for t in chain:
                    entries[t] = TurnEntry(t, True, False, None)
                return entries[turn]
            on_chain.add(node)
            chain.append(node)
            node = derivative_turn(self.rep, node)
        known = entries[node]
        for p, t in enumerate(chain):
            steps = (
                known.steps_to_degeneracy + (len(chain) - p)
                if known.steps_to_degeneracy is not None
                else None
            )
            entries[t] = TurnEntry(t, known.legal, t.degenerate, steps)
        return entries[turn]

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
    for t in turns:
        e1, e2 = t.edges()
        if stratum_of[e1] == r == stratum_of[e2] and not table.legal(t):
            return False
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


def _turn_r_ok(table: LegalityTable, stratum_of, r: int, t: Turn) -> bool:
    e1, e2 = t.edges()
    if stratum_of[e1] == r == stratum_of[e2]:
        return table.legal(t)
    return True


def verify_rtt(
    rep: TopologicalRepresentative,
    path_bound: int | None = None,
    max_paths: int = 200_000,
) -> list[RttStratumVerdict]:
    """Verify the three relative-train-track properties on every growing stratum.

    Germ preservation and legality propagation are exact; injectivity on
    connecting paths in the lower filtration is checked for all reduced
    decorated paths up to ``path_bound`` darts (default: twice the edge
    count), so that verdict is "verified up to the bound".
    """
    g = rep.graph
    dec = rep.strata()
    table = classify_turns(rep)
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
        # (3) r-legality: images of stratum edges are r-legal, and the
        # derivative keeps turns r-legal
        v.legality_ok = True
        for e in s.edges:
            if not is_r_legal(rep, rep.edge_images[e], r, table):
                v.legality_ok = False
                v.legality_witness = is_legal_path(rep, table, rep.edge_images[e])
                break
        if v.legality_ok:
            lower = dec.filtration(r)
            for entry in table:
                t = entry.turn
                e1, e2 = t.edges()
                if e1 not in lower or e2 not in lower:
                    continue
                if not _turn_r_ok(table, stratum_of, r, t):
                    continue
                if not _turn_r_ok(table, stratum_of, r, derivative_turn(rep, t)):
                    v.legality_ok = False
                    v.legality_witness = t
                    break
        # (2) injectivity on connecting paths through the lower filtration
        v.injectivity_bound = bound
        v.injectivity_ok = True
        counterexample, checked = _rtt_injectivity(rep, dec, r, bound, max_paths)
        v.paths_checked = checked
        if counterexample is not None:
            v.injectivity_ok = False
            v.injectivity_witness = counterexample
        verdicts.append(v)
    return verdicts


def _rtt_injectivity(rep, dec, r, bound, max_paths):
    """Search T_{r-1} connecting paths whose image collapses; returns (witness, count)."""
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
    checked = 0
    stack: list[GraphPath] = []
    for v in sorted(endpoints):
        for pre in range(g.vertex_order(v)):
            stack.append(GraphPath(g, v, pre, ()))
    while stack:
        p = stack.pop()
        end = p.end
        if p.steps and end in endpoints:
            checked += 1
            if checked > max_paths:
                raise NonConvergenceError(
                    f"injectivity search exceeded {max_paths} candidate paths"
                )
            image = reduce_path(rep.map_path(p))
            if not image.steps and image.prefix == 0:
                return p, checked
        if len(p.steps) >= bound:
            continue
        last = p.steps[-1] if p.steps else None
        for d in g.darts_at(end):
            if (d >> 1) not in lower_edges:
                continue
            if last is not None and last[1] == 0 and d == last[0] ^ 1:
                continue
            for e in range(g.vertex_order(g.dart_head(d))):
                stack.append(GraphPath(g, p.start, p.prefix, p.steps + ((d, e),)))
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

    def loop_candidate(loop: GraphPath) -> Word | None:
        if r_length(rep, loop, r) <= 0:
            return None
        if not is_r_legal(rep, loop, r, table, cyclic=True):
            return None
        dn, en = loop.steps[-1]
        d1 = loop.steps[0][0]
        if dn ^ 1 == d1 and g.vertex_mul(loop.start, en, loop.prefix) == 0:
            return None  # not cyclically reduced
        word = inverter.element_of_loop_at(loop)
        return word if word.is_hyperbolic() else None

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
                    word = loop_candidate(GraphPath(g, vertices[i], 0, tuple(steps)))
                    if word is not None:
                        return word

    word = _legal_loop_search(rep, r, table, inverter, loop_bound)
    if word is not None:
        return word
    raise NonConvergenceError(
        f"no r-legal hyperbolic element found for stratum {r} within the caps",
        best=longest_legal,
    )


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
                dn, en = p.steps[-1]
                d1 = p.steps[0][0]
                if not (dn ^ 1 == d1 and g.vertex_mul(p.start, en, p.prefix) == 0):
                    if r_length(rep, p, r) > 0 and is_r_legal(rep, p, r, table, cyclic=True):
                        word = inverter.element_of_loop_at(p)
                        if word.is_hyperbolic():
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
