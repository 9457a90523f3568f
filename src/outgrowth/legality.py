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
classes of directions that end up together are the gates, so the legality
of a turn is a lookup of its two directions' gates.  ``classify_turns``
enumerates the turns in canonical form, in sorted order, as columns of
direction indices and finds their meeting times by binary lifting on the
powers ``Df^(2^k)``, so timing every turn costs a few array passes per
power.  ``illegal_turn`` is the one walk along the turns of a path: it tests
the raw directions of each turn and normalises only the turn it returns.

Relative train track injectivity is decided exactly, without a search, on
maps that pass ``verify_representative``.  Such a map is a homotopy
equivalence, so it sends the reduced paths from x to y one to one onto
those from f(x) to f(y) (Serre, *Trees*, 1980): a connecting path can
tighten to a point only between endpoints x != y with f(x) = f(y), and
then only one path between them does.  That path is pulled back through
the declared inverse automorphism; it is a witness when it stays in the
lower filtration, and only its length is compared with the bound.

Stratum-legal hyperbolic elements are found by an exhaustive cycle search
in the digraph of r-legal turns, so ``InputError`` there means that no
cyclically r-legal loop crosses the stratum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .free_product import Word
from .graph_of_groups import GraphPath, MarkedMetricGraph, reduce_path
from .graph_map import TopologicalRepresentative, verify_representative

Direction = tuple[int, int]  # (outgoing dart, vertex-group twist)


class Turn(NamedTuple):
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


def _directions(graph: MarkedMetricGraph) -> list[Direction]:
    """Every direction, numbered vertex by vertex."""
    return [
        (d, tw) for v in range(graph.n_vertices) for d in graph.darts_at(v) for tw in range(graph.vertex_order(v))
    ]


def _turn_pairs(graph: MarkedMetricGraph, index: dict[Direction, int]) -> tuple[np.ndarray, ...]:
    """(vertex, first direction, second direction) of every turn, as index arrays, sorted.

    A turn at v has the canonical form ``((d_i, 0), (d_j, h))``, i <= j, over
    the sorted darts at v: h is any group element when i < j and the lesser
    of h and h^-1 when i = j, as ``make_turn`` chooses.  Directions are
    numbered consecutively in h, so the pairs of ``np.triu_indices``, each
    taken with every h it admits, list the turns of v in order; a vertex with
    no group is the order-1 case.  Vertices come in order, so the whole list
    is sorted.
    """
    columns = []
    for v in range(graph.n_vertices):
        tbl = graph.vertex_table(v)
        inverse = np.array((0,) if tbl is None else tbl.inverse, dtype=np.intp)
        ids = np.array([index[d, 0] for d in sorted(graph.darts_at(v))], dtype=np.intp)
        i, j = np.triu_indices(len(ids))
        pair, h = np.nonzero((i != j)[:, None] | (np.arange(len(inverse)) <= inverse))
        columns.append((np.full(len(pair), v, dtype=np.intp), ids[i[pair]], ids[j[pair]] + h))
    return tuple(np.concatenate(c) for c in zip(*columns))


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


class LegalityTable:
    """Turn legality read off the gates of the derivative.

    ``Df`` is tabulated as an int array on ``directions``, numbered vertex
    by vertex.  It is injective on its periodic directions, so two
    directions that ever meet meet within as many steps as there are
    directions.  The lifts ``Df^(2^k)`` are built by squaring, for k up to
    the bit length of that count, and the last lift is the gate, which joins
    exactly the directions that meet.  ``legal`` is a gate lookup: a turn is
    legal when its two directions have different gates, and
    ``classify_turns`` times every turn at once on the lifts.  An edge
    mapping to a point has no derivative and raises ``InputError``.
    """

    def __init__(self, rep: TopologicalRepresentative):
        g = rep.graph
        self.directions = directions = _directions(g)
        self._index = index = {x: i for i, x in enumerate(directions)}
        df = np.array([index[_derivative_direction(rep, g.dart_tail(x[0]), x)] for x in directions], dtype=np.intp)
        lifts = [df]
        for _ in range(len(df).bit_length()):
            lifts.append(lifts[-1][lifts[-1]])
        self.lifts = lifts
        self._gate = dict(zip(directions, lifts[-1].tolist()))

    def legal(self, x: Direction, y: Direction) -> bool:
        """Whether two directions at one vertex lie in different gates."""
        gate = self._gate
        return gate[x] != gate[y]


@dataclass(frozen=True, slots=True)
class TurnColumns:
    """Every turn in enumeration order, one index array per field; ``len`` is the turn count.

    ``first`` and ``second`` index ``directions``; ``steps`` is the meeting
    time, 0 on a degenerate turn and -1 on a legal one.
    """

    directions: list[Direction]
    vertex: np.ndarray
    first: np.ndarray
    second: np.ndarray
    steps: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)


def classify_turns(rep: TopologicalRepresentative) -> TurnColumns:
    """Every turn of the graph, decided at once by binary lifting on the cached ``rep.legality()``."""
    table = rep.legality()
    vertex, first, second = _turn_pairs(rep.graph, table._index)
    *lifts, gate = table.lifts
    steps = np.where(gate[first] == gate[second], 0, -1)
    apart = np.flatnonzero((steps == 0) & (first != second))
    x, y = first[apart], second[apart]
    meet = np.ones(len(apart), dtype=np.intp)
    for k in range(len(lifts) - 1, -1, -1):
        fx, fy = lifts[k][x], lifts[k][y]
        jump = fx != fy
        x, y = np.where(jump, fx, x), np.where(jump, fy, y)
        meet[jump] += 1 << k
    steps[apart] = meet
    return TurnColumns(table.directions, vertex, first, second, steps)


# -- turns along paths ---------------------------------------------------------


def illegal_turn(
    rep: TopologicalRepresentative, p: GraphPath, r: int | None = None, cyclic: bool = False
) -> Turn | None:
    """The first illegal turn the path takes, or None when every turn is legal.

    With ``r`` only turns with both edges in stratum r count.  With
    ``cyclic=True`` the seam turn of a closed path comes last, and a path
    that is not closed raises ``InputError``.  Each turn is tested on its raw
    directions ``(d^-1, 0)`` and ``(d2, e)``, and only the turn returned is
    normalised by ``make_turn``.  The test agrees with the normalised turn's
    because ``Df(h x) = phi_v(h) Df(x)`` for each element h of the vertex
    group, so the gates of h x and h y are equal exactly when those of x and
    y are.  That holds when the vertex twists ``phi_v`` are homomorphisms,
    as on every map that passes ``verify_representative``.
    """
    g = rep.graph
    steps = p.steps
    turns = [(g.dart_head(d), (d ^ 1, 0), (d2, e)) for (d, e), (d2, _) in zip(steps, steps[1:])]
    if cyclic and steps:
        if p.start != p.end:
            raise InputError("seam turn requires a closed path with at least one dart")
        (dn, en), (d1, _) = steps[-1], steps[0]
        turns.append((p.start, (dn ^ 1, 0), (d1, g.vertex_mul(p.start, en, p.prefix))))
    table = rep.legality()
    stratum_of = rep.stratification().stratum_of if r is not None else None
    for v, x, y in turns:
        if (r is None or stratum_of[x[0] >> 1] == r == stratum_of[y[0] >> 1]) and not table.legal(x, y):
            return make_turn(g, v, x, y)
    return None


# -- train track verification -----------------------------------------------


@dataclass
class TrainTrackVerdict:
    ok: bool
    witness_edge: int | None = None
    witness_turn: Turn | None = None

    def __bool__(self):
        return self.ok


def verify_train_track(rep: TopologicalRepresentative) -> TrainTrackVerdict:
    """Check that the image of every edge is a legal path.

    Single edges contain no turns, so this is the operative content of
    "every edge is legal": iterated images never cancel.
    """
    for m in range(rep.graph.n_edges):
        bad = illegal_turn(rep, rep.edge_images[m])
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
    tightens to a point.  It is decided only on a map that passes
    ``verify_representative``: such a map is a homotopy equivalence, and
    the one collapsing path between two endpoints with the same image is
    pulled back through the declared inverse, so nothing is searched.  The
    witness is the shortest such path when it is no longer than the bound.
    ``paths_checked`` is the number of paths the bounded predicate covers,
    counted in closed form.  On a map that fails verification, germs and
    legality are still decided, but every injectivity field stays None, so
    no growing stratum is ``ok``.
    """
    if path_bound is not None and path_bound < 1:
        raise InputError(f"the path bound must be at least 1, not {path_bound}")
    dec = rep.stratification()
    rep.legality()  # an edge mapping to a point raises InputError here, before its image is read
    verified = not verify_representative(rep)
    bound = path_bound if path_bound is not None else 2 * rep.graph.n_edges
    stratum_of = dec.stratum_of
    verdicts = []
    for s in dec.strata:
        v = RttStratumVerdict(s.index, s.growing)
        verdicts.append(v)
        if not s.growing:
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
        bad = (illegal_turn(rep, rep.edge_images[e], r) for e in s.edges)
        v.legality_witness = next((t for t in bad if t is not None), None)
        v.legality_ok = v.legality_witness is None
        # (2) injectivity on connecting paths through the lower filtration
        if verified:
            v.injectivity_bound = bound
            shortest, v.paths_checked = _rtt_injectivity(rep, dec, r, bound)
            v.injectivity_ok = shortest is None or len(shortest) > bound
            if not v.injectivity_ok:
                v.injectivity_witness = shortest
    return verdicts


def _rtt_injectivity(rep, dec, r, bound):
    """The shortest T_{r-1} connecting path whose image tightens to a point, and a path count.

    Returns ``(witness, checked)``: the witness is a shortest reduced
    decorated connecting path in the lower filtration whose image tightens
    to the trivial path, or None when no path of any length does, and
    ``checked`` counts the connecting paths of 1 to ``bound`` darts.  The
    map must pass ``verify_representative``.
    """
    g = rep.graph
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
        _collapsing_path(rep, lower_edges, endpoints),
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


def _collapsing_path(rep, lower_edges, endpoints):
    """The shortest connecting path in ``lower_edges`` whose image tightens to the trivial path, or None.

    The map is a verified homotopy equivalence, so the reduced paths from x
    to y correspond one to one to the reduced paths from f(x) to f(y).  Only
    a pair x < y of endpoints with f(x) = f(y) has a collapsing path, then
    exactly one, and it is pulled back: with tree paths tx and ty from the
    base, the loop ``tether f(tx) f(ty)^-1 tether^-1`` reads an element u,
    and the collapsing path is ``tx^-1 loop(psi(u)) ty`` tightened, where psi
    is the declared inverse automorphism.  It is a witness when all its
    darts lie in ``lower_edges``.  Of equally short witnesses the one of the
    least pair (x, y) is returned; it runs from x to y.
    """
    g = rep.graph
    inv = g.marking_inverter()
    tether, back, psi = rep.tether, rep.tether.inverse(), rep.automorphism.inverse
    best = None
    for x, y in combinations(sorted(endpoints), 2):
        if rep.vertex_images[x] != rep.vertex_images[y]:
            continue
        tx, ty = inv.tree_path(x), inv.tree_path(y)
        u = inv.element_of_loop(tether * rep.map_path(tx) * rep.map_path(ty).inverse() * back)
        path = reduce_path(tx.inverse() * g.loop_of_element(psi.apply(u)) * ty)
        if all(d >> 1 in lower_edges for d, _ in path.steps) and (best is None or len(path) < len(best)):
            best = path
    return best


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
    dec = rep.stratification()
    if not 1 <= r <= dec.count:
        raise InputError(f"no stratum {r}")
    stratum = dec.strata[r - 1]
    if not stratum.growing:
        raise InputError(f"stratum {r} is a zero stratum")
    table = rep.legality()
    allowed = dec.filtration(r)
    stratum_of = dec.stratum_of
    arcs: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def successors(step):
        out = arcs.get(step)
        if out is None:
            d, e = step
            v = g.dart_head(d)
            in_r = stratum_of[d >> 1] == r  # only a turn with both edges in stratum r can be r-illegal
            out = arcs[step] = [
                (d2, e2)
                for d2 in g.darts_at(v)
                if (d2 >> 1) in allowed
                and not (e == 0 and d2 == d ^ 1)
                and not (in_r and stratum_of[d2 >> 1] == r and not table.legal((d ^ 1, 0), (d2, e)))
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
                    return g.marking_inverter().element_of_loop_at(loop)
                if nxt not in parent:
                    parent[nxt] = step
                    queue.append(nxt)
    raise InputError(f"stratum {r} has no r-legal hyperbolic loop")
