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
classes of directions that end up together are the gates.  Turns are
enumerated in sorted order, and an illegal turn's meeting time is memoised
on its pair of directions, so deciding every turn costs a small constant
per turn.

Relative train track injectivity up to a bound is decided exactly: a
shortest connecting path whose image tightens to a point is found by
context-free reachability over the positions in the edge images, at a
cost that does not depend on the bound, and only its length is compared
with the bound.

Stratum-legal hyperbolic elements are found by an exhaustive cycle search
in the digraph of r-legal turns, so ``InputError`` there means that no
cyclically r-legal loop crosses the stratum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError
from .free_product import Word
from .graph_of_groups import GraphPath, MarkedMetricGraph, MarkingInverter
from .graph_map import TopologicalRepresentative

Direction = tuple[int, int]  # (outgoing dart, vertex-group twist)


class Turn(NamedTuple):
    # a named tuple hashes and compares in C: turns key the table and sort at grouped vertices
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
    """All turns of the graph, one representative per vertex-group orbit, sorted.

    At a vertex with no group the turns are the pairs ``(d_i, d_j)``, i <= j,
    of its sorted darts with twist 0, emitted in that order; a vertex with a
    group normalises each pair by ``make_turn`` and sorts its own turns.
    Vertices come in order, so the whole list is sorted.
    """
    turns: list[Turn] = []
    new_turn = tuple.__new__  # Turn's own __new__ is a Python call per turn
    for v in range(graph.n_vertices):
        darts = sorted(graph.darts_at(v))
        if graph.vertex_table(v) is None:
            dirs = [(d, 0) for d in darts]
            turns += [new_turn(Turn, (v, (d1, d2))) for i, d1 in enumerate(dirs) for d2 in dirs[i:]]
        else:
            dirs = [(d, g) for d in darts for g in range(graph.vertex_order(v))]
            turns += sorted({make_turn(graph, v, d1, d2) for i, d1 in enumerate(dirs) for d2 in dirs[i:]})
    return turns


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


@dataclass(slots=True)
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
    ``steps_to_degeneracy`` is their meeting time, ``meet(x, x) = 0`` and
    ``meet(x, y) = 1 + meet(Df x, Df y)``.  Meeting times are memoised on
    unordered pairs of direction indices, so lazy ``entry`` calls and a full
    ``classify_turns`` walk each pair at most once.  An edge mapping to a
    point has no derivative and raises ``InputError``.
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
        self._meet: dict[tuple[int, int], int] = {}  # (x, y), x < y, same gate -> meeting time

    def entry(self, turn: Turn) -> TurnEntry:
        """The turn's entry, deciding it first if it is new."""
        entry = self.entries.get(turn)
        if entry is None:
            d1, d2 = turn.directions
            steps = self._meeting_time(self._index[d1], self._index[d2])
            entry = self.entries[turn] = TurnEntry(turn, steps is None, steps == 0, steps)
        return entry

    def _meeting_time(self, x: int, y: int) -> int | None:
        """Steps until powers of Df join directions x and y, or None when their gates differ."""
        if x == y:
            return 0
        if self._gate[x] != self._gate[y]:
            return None
        df, memo = self._df, self._meet
        chain = []
        pair = (x, y) if x < y else (y, x)
        while pair not in memo:
            chain.append(pair)
            x, y = df[pair[0]], df[pair[1]]
            if x == y:
                steps = 0
                break
            pair = (x, y) if x < y else (y, x)
        else:
            steps = memo[pair]
        for pair in reversed(chain):
            steps += 1
            memo[pair] = steps
        return steps

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


def verify_rtt(rep: TopologicalRepresentative, path_bound: int | None = None) -> list[RttStratumVerdict]:
    """Verify the three relative-train-track properties on every growing stratum.

    Germ preservation and r-legal edge images are exact, and the legality
    witness is the first turn of an edge image that is not r-legal; the
    derivative then keeps r-legal turns r-legal, as legal turns have legal
    images and images only descend.  Injectivity on connecting paths in the
    lower filtration holds up to ``path_bound`` darts (default: twice the
    edge count; a bound below 1 raises ``InputError``) when no reduced
    decorated connecting path of at most that many darts has an image that
    tightens to a point.  That is decided exactly, from a shortest such
    path, at a cost that does not depend on the bound, and the witness is
    that path when it is no longer than the bound.  ``paths_checked`` is
    the number of paths the bounded predicate covers, counted in closed form.
    """
    if path_bound is not None and path_bound < 1:
        raise InputError(f"the path bound must be at least 1, not {path_bound}")
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
            turns = path_turns(g, rep.edge_images[e])
            bad = next((t for t in turns if not _turn_r_ok(table, stratum_of, r, t)), None)
            if bad is not None:
                v.legality_ok = False
                v.legality_witness = bad
                break
        # (2) injectivity on connecting paths through the lower filtration
        v.injectivity_bound = bound
        shortest, v.paths_checked = _rtt_injectivity(rep, dec, r, bound)
        v.injectivity_ok = shortest is None or len(shortest) > bound
        if not v.injectivity_ok:
            v.injectivity_witness = shortest
        verdicts.append(v)
    return verdicts


def _rtt_injectivity(rep, dec, r, bound):
    """The shortest T_{r-1} connecting path whose image tightens to a point, and a path count.

    Returns ``(witness, checked)``: the witness is a shortest reduced
    decorated connecting path in the lower filtration whose image tightens
    to the trivial path, or None when no path of any length does, and
    ``checked`` counts the connecting paths of 1 to ``bound`` darts.
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
    lower_darts = [d for m in sorted(lower_edges) for d in (2 * m, 2 * m + 1)]
    return (
        _shortest_collapsing_path(rep, lower_darts, endpoints),
        _connecting_path_count(g, lower_darts, endpoints, bound),
    )


def _connecting_path_count(g, lower_darts, endpoints, bound):
    """Reduced decorated paths of 1 to ``bound`` lower darts between endpoints, any prefix.

    Every element after a dart has the same extensions, except that
    ``(d, 0)`` may not go on by ``d ^ 1``.  So ``count[d]`` is the number of
    paths ending in d followed by one given element, and the counts of the
    next length are ``into[tail(d)] - count[d ^ 1]``, where ``into[v]``
    counts the paths ending at v with every element.
    """
    order = g.vertex_order
    count = {d: order(g.dart_tail(d)) if g.dart_tail(d) in endpoints else 0 for d in lower_darts}
    checked = 0
    for length in range(1, bound + 1):
        into = [0] * g.n_vertices
        for d, c in count.items():
            h = g.dart_head(d)
            into[h] += c * order(h)
        checked += sum(into[v] for v in endpoints)
        if length < bound:
            count = {d: into[g.dart_tail(d)] - count[d ^ 1] for d in lower_darts}
    return checked


def _shortest_collapsing_path(rep, lower_darts, endpoints):
    """A shortest reduced connecting path whose image tightens to the trivial path, or None.

    The images of connecting paths are the label sequences of paths in one
    graph.  Each lower dart's image is a chain of nodes, one per position,
    joined by its dart letters and its nontrivial element letters.  A
    control node ``(vertex, dart that would backtrack)`` enters the chain of
    every other lower dart leaving its vertex, through the image's leading
    element, at cost 1: that move is one dart of the path.  The chain of d
    ends in a control node at its head for each element e after d, through
    the image's last element times the twist of e.  An endpoint has a start
    node, entered from its prefixes, that is no control node, so a path has
    at least one dart.

    An item ``(p, q, x)`` says that some label path from p to q tightens to
    the bare vertex-group element x.  Items grow by an element letter, and
    by a dart letter s, a balanced item from the node after s that tightens
    to the identity, then the letter ``s ^ 1``: cancelling darts nest, so a
    word tightens to an element exactly when it parses so (Reps 1998).
    Items settle in order of least cost, and a cost never falls when items
    combine (Knuth 1977), so the first item from a start to an endpoint's
    control node with the identity gives a shortest path, unfolded from
    back-pointers.  Balanced items start at every node after a dart letter
    at cost 0.  There are finitely many items, so "none" is decided.
    """
    g = rep.graph
    mul, head = g.vertex_mul, g.dart_head
    vertex = []  # node -> vertex of its image position
    moves = []  # node -> [(node, element letter, cost, step (d, e) of the path or None)]
    dart_out = []  # node -> (dart letter, node after it), or None

    def new_node(v):
        vertex.append(v)
        moves.append([])
        dart_out.append(None)
        return len(vertex) - 1

    after_letter = {}  # node after a dart letter -> that letter
    control: dict[tuple[int, int], int] = {}
    entry = {}  # lower dart -> (first node of its image chain, the image's leading element)
    for d in lower_darts:
        img = rep.image_dart(d)
        node = first = new_node(img.start)
        elem = 0
        for sd, se in img.steps:
            if elem:
                node, prev = new_node(vertex[node]), node
                moves[prev].append((node, elem, 0, None))
            node, prev = new_node(head(sd)), node
            dart_out[prev] = (sd, node)
            after_letter[node] = sd
            elem = se
        entry[d] = first, img.prefix
        h = head(d)
        for e in range(g.vertex_order(h)):
            key = (h, -1 if e else d ^ 1)
            if key not in control:
                control[key] = new_node(rep.vertex_images[h])
            moves[node].append((control[key], mul(vertex[node], elem, rep.image_element(h, e)), 0, (d, e)))
    starts = {new_node(rep.vertex_images[v]): v for v in sorted(endpoints)}
    for (v, back), node in [*control.items(), *(((v, -1), s) for s, v in starts.items())]:
        moves[node] += [(*entry[d], 1, None) for d in g.darts_at(v) if d in entry and d != back]
    accepting = {c for (v, _), c in control.items() if v in endpoints}

    # buckets[cost]: (item, back-pointer) in the order found; lists grow while they are walked
    buckets: list[list] = [[((s, s, rep.image_element(v, pre)), (0, pre, None)) for s, v in starts.items()
                            for pre in range(g.vertex_order(v))]]
    buckets[0] += [((y, y, 0), None) for y in after_letter]
    settled = {}  # item -> back-pointer: (0, prefix, None), (1, item, step) or (2, left item, balanced item)
    waiting = {y: [] for y in after_letter}  # settled (cost, item) ending just before the letter into y
    closing = {y: [] for y in after_letter}  # settled (cost, balanced item from y, node after s ^ 1)

    def push(item, cost, back):
        while len(buckets) <= cost:
            buckets.append([])
        buckets[cost].append((item, back))

    for cost, bucket in enumerate(buckets):
        for item, back in bucket:
            if item in settled:
                continue
            settled[item] = back
            p, q, x = item
            if not x and q in accepting and p in starts:
                return _unfold_path(g, settled, item, starts[p])
            v = vertex[q]
            for t, elem, w, step in moves[q]:
                nxt = (p, t, mul(v, x, elem))
                if nxt not in settled:
                    push(nxt, cost + w, (1, item, step))
            out = dart_out[q]
            if out is None:
                continue
            s, y = out
            waiting[y].append((cost, item))
            for c, bal, z in closing[y]:
                push((p, z, x), cost + c, (2, item, bal))
            if not x and p in after_letter and s == after_letter[p] ^ 1:
                closing[p].append((cost, item, y))
                for c, left in waiting[p]:
                    push((left[0], y, left[2]), c + cost, (2, left, item))
    return None


def _unfold_path(g, settled, item, start):
    """The path steps an item's back-pointers record, from right to left on a stack."""
    steps = []
    stack = [item]
    while stack:
        back = settled[stack.pop()]
        if back is None:
            continue
        kind, a, b = back
        if kind == 0:
            prefix = a
        elif kind == 1:
            if b is not None:
                steps.append(b)
            stack.append(a)
        else:
            stack += (a, b)
    return GraphPath(g, start, prefix, tuple(reversed(steps)))


# -- producing legal hyperbolic elements ----------------------------------------


def find_r_legal_hyperbolic(rep: TopologicalRepresentative, r: int) -> Word:
    """A hyperbolic element carried by a cyclically r-legal loop through stratum r.

    Such loops are the cycles of a digraph on the steps ``(dart, element)``
    of the filtration T_r, with an arc from ``(d, e)`` to ``(d2, e2)`` when
    ``d2`` leaves the head of ``d`` without backtracking and the turn
    between them is r-legal.  A breadth-first search from each stratum-r
    step, in (dart, element) order, stops at the first arc back to its
    start, so the loop found is a shortest one through that step.  It is
    cyclically reduced, so its element g is hyperbolic, and it scales
    exactly: the stratum length of g alpha^k is mu_r^k times that of g.
    The loop is turned into g by ``MarkingInverter``.  ``InputError`` is
    raised when no search closes a cycle, so there is no such loop, and
    when the marking is not an isomorphism; ``NonConvergenceError`` never is.
    """
    g = rep.graph
    dec = rep.strata()
    if not 1 <= r <= dec.count:
        raise InputError(f"no stratum {r}")
    stratum = dec.strata[r - 1]
    if not stratum.growing:
        raise InputError(f"stratum {r} is a zero stratum")
    table = rep.legality()
    allowed = dec.filtration(r)
    arcs: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def successors(step):
        out = arcs.get(step)
        if out is None:
            d, e = step
            v = g.dart_head(d)
            out = arcs[step] = [
                (d2, e2)
                for d2 in g.darts_at(v)
                if (d2 >> 1) in allowed
                and not (e == 0 and d2 == d ^ 1)
                and _turn_r_ok(table, dec.stratum_of, r, make_turn(g, v, (d ^ 1, 0), (d2, e)))
                for e2 in range(g.vertex_order(g.dart_head(d2)))
            ]
        return out

    darts = sorted(d for m in stratum.edges for d in (2 * m, 2 * m + 1))
    for start in [(d, e) for d in darts for e in range(g.vertex_order(g.dart_head(d)))]:
        parent = {start: None}
        queue = deque([start])
        while queue:
            step = queue.popleft()
            for nxt in successors(step):
                if nxt == start:
                    steps = []
                    while step is not None:
                        steps.append(step)
                        step = parent[step]
                    loop = GraphPath(g, g.dart_tail(start[0]), 0, tuple(reversed(steps)))
                    return MarkingInverter(g).element_of_loop_at(loop)
                if nxt not in parent:
                    parent[nxt] = step
                    queue.append(nxt)
    raise InputError(f"stratum {r} has no r-legal hyperbolic loop")
