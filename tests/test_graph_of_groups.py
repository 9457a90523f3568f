import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outgrowth import (
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    GraphPath,
    InputError,
    MarkedMetricGraph,
    MarkingInverter,
    cyclically_reduce,
    NonConvergenceError,
    reduce_path,
    relative_conjugacy_length,
    load_bundled,
    TopologicalRepresentative,
    standard_rose,
    Violation,
    validate_graph,
    verify_representative,
)
from conftest import chord_text, load_text, random_hyperbolic, random_word, tower_text


# -- construction and validation ---------------------------------------------


def test_standard_rose_f2(f2):
    rose = standard_rose(f2)
    assert validate_graph(rose) == []
    assert rose.n_edges == 2
    assert rose.n_vertices == 1
    assert rose.betti_number() == 2


def test_standard_rose_c2_c3():
    G = FreeProduct([FiniteGroupTable.cyclic(2, "P"), FiniteGroupTable.cyclic(3, "Q")])
    rose = standard_rose(G)
    assert validate_graph(rose) == []
    assert rose.n_vertices == 3
    assert rose.lengths == (0.5, 0.5)


def test_standard_rose_c2_f1():
    G = FreeProduct([FiniteGroupTable.cyclic(2, "P")], free_rank=1, free_names=["x"])
    rose = standard_rose(G)
    assert validate_graph(rose) == []
    assert rose.n_edges == 2
    assert rose.lengths == (1.0, 0.5)


def test_validate_rank_mismatch(f2):
    graph = MarkedMetricGraph(f2, 1, [(0, 0, 1.0)], [None], 0)
    graph.free_marking = (graph.path(0, [(0, 0)]),)
    codes = {v.code for v in validate_graph(graph)}
    assert "rank mismatch" in codes


def test_validate_zero_length_edge(f2):
    rose = standard_rose(f2)
    bad = rose.with_lengths([1.0, 0.0])
    codes = {v.code for v in validate_graph(bad)}
    assert "non-metric edge" in codes


def test_validate_disconnected():
    G = FreeProduct(free_rank=1, free_names=["x"])
    graph = MarkedMetricGraph(G, 2, [(0, 0, 1.0)], [None, None], 0)
    graph.free_marking = (graph.path(0, [(0, 0)]),)
    codes = {v.code for v in validate_graph(graph)}
    assert "disconnected" in codes


@pytest.mark.parametrize("end", [3, -1])
def test_validate_bad_edge_end(end):
    G = FreeProduct(free_rank=1, free_names=["x"])
    graph = MarkedMetricGraph(G, 1, [(0, end, 1.0)], [None], 0)
    assert [v.code for v in validate_graph(graph)] == ["bad edge"]
    rep = TopologicalRepresentative(graph, Automorphism.identity(G), [0], [graph.path(0, [(0, 0)])])
    assert [v.code for v in verify_representative(rep)] == ["bad edge"]


def _scan_darts_at(graph, v):
    """Darts leaving v, found by scanning every edge."""
    out = []
    for m, (t, h) in enumerate(graph.edge_ends):
        if t == v:
            out.append(2 * m)
        if h == v:
            out.append(2 * m + 1)
    return out


def test_darts_at_matches_edge_scan():
    graphs = [load_bundled(name).graph
              for name in ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed")]
    for n in range(3, 11):
        graphs += [load_text(chord_text(n)).graph, load_text(tower_text(n)).graph]
    # a petal at a grouped vertex and a bridge between two
    G = FreeProduct([FiniteGroupTable.cyclic(2, "P"), FiniteGroupTable.cyclic(3, "Q")], free_rank=1)
    graphs.append(MarkedMetricGraph(G, 2, [(0, 1, 1.0), (1, 1, 1.0), (1, 0, 1.0)], [0, 1], 0))
    for graph in graphs:
        for v in range(graph.n_vertices):
            assert list(graph.darts_at(v)) == _scan_darts_at(graph, v)


# -- path reduction -------------------------------------------------------------


def _spoked_graph():
    """C3 at the end of a spoke plus one petal: exercises decorated reductions."""
    G = FreeProduct([FiniteGroupTable.cyclic(3, "Q")], free_rank=1, free_names=["x"])
    rose = standard_rose(G)
    return G, rose


def test_reduce_deletes_trivial_backtrack():
    G, rose = _spoked_graph()
    spoke = 2  # dart of the spoke edge (geometric edge 1)
    p = rose.path(0, [(spoke, 0), (spoke ^ 1, 0)])
    assert reduce_path(p) == rose.trivial_path(0)


def test_reduce_keeps_twisted_backtrack():
    G, rose = _spoked_graph()
    spoke = 2
    p = rose.path(0, [(spoke, 1), (spoke ^ 1, 0)])
    assert reduce_path(p) == p


def test_reduce_single_rewrite_merges_elements():
    G, rose = _spoked_graph()
    spoke = 2
    # x-petal out and back around the central vertex, then the spoke
    p = rose.path(0, [(0, 0), (1, 0), (spoke, 2)])
    assert reduce_path(p) == rose.path(0, [(spoke, 2)])


def _random_path(graph, rng, n):
    darts = []
    at = graph.base
    steps = []
    for _ in range(n):
        options = graph.darts_at(at)
        d = rng.choice(options)
        steps.append((d, rng.randrange(graph.vertex_order(graph.dart_head(d)))))
        at = graph.dart_head(d)
    return GraphPath(graph, graph.base, 0, tuple(steps))


def _random_schedule_reduce_path(p, rng):
    graph = p.graph
    prefix = p.prefix
    work = list(p.steps)
    while True:
        spots = [
            i
            for i in range(len(work) - 1)
            if work[i][1] == 0 and work[i + 1][0] == work[i][0] ^ 1
        ]
        if not spots:
            return GraphPath(graph, p.start, prefix, tuple(work))
        i = rng.choice(spots)
        carried = work[i + 1][1]
        del work[i : i + 2]
        if i == 0:
            prefix = graph.vertex_mul(p.start, prefix, carried)
        else:
            d, e = work[i - 1]
            work[i - 1] = (d, graph.vertex_mul(graph.dart_head(d), e, carried))


def test_reduce_confluent_random_schedules():
    G, rose = _spoked_graph()
    rng = random.Random(13)
    for _ in range(300):
        p = _random_path(rose, rng, rng.randrange(12))
        assert _random_schedule_reduce_path(p, rng) == reduce_path(p)


# -- cyclic reduction ------------------------------------------------------------


def test_cyclic_reduce_peels_conjugating_edge(f2):
    rose = standard_rose(f2)
    a, b = 0, 2  # darts of the two petals
    loop = rose.path(0, [(a, 0), (b, 0), (a ^ 1, 0)])
    core, conj = cyclically_reduce(loop)
    assert core == rose.path(0, [(b, 0)])
    assert conj == rose.path(0, [(a, 0)])
    assert reduce_path(conj * core * conj.inverse()) == loop


def test_cyclic_reduce_fixed_point(f2):
    rose = standard_rose(f2)
    loop = rose.path(0, [(0, 0), (2, 0)])
    core, conj = cyclically_reduce(loop)
    assert core == loop
    assert conj == rose.trivial_path(0)


def test_cyclic_reduce_elliptic_witness():
    G, rose = _spoked_graph()
    g = G.factor_element(0, 2)
    loop = rose.loop_of_element(g)
    core, conj = cyclically_reduce(loop)
    assert core.steps == ()
    assert core.prefix == 2
    assert rose.translation_length(g) == 0.0
    assert cyclically_reduce(rose.loop_of_element(g))[0].prefix == 2


# -- marking and translation lengths ------------------------------------------------


def test_loop_of_identity(mixed_group):
    rose = standard_rose(mixed_group)
    assert rose.loop_of_element(mixed_group.identity()) == rose.trivial_path(0)


def test_loop_of_free_generator(f2):
    rose = standard_rose(f2)
    assert rose.loop_of_element(f2.free(0)) == rose.free_marking[0]


def test_loop_of_factor_element():
    G, rose = _spoked_graph()
    g = G.factor_element(0, 1)
    spoke = 2
    assert rose.loop_of_element(g) == rose.path(0, [(spoke, 1), (spoke ^ 1, 0)])


def test_translation_length_examples(mixed_group):
    rose = standard_rose(mixed_group)
    G = mixed_group
    assert rose.translation_length(G.identity()) == 0.0
    assert rose.translation_length(G.free(0)) == 1.0
    # factor element times free letter: one whole spoke round trip plus a petal
    g = G.factor_element(0, 1) * G.free(0)
    assert rose.translation_length(g) == 2.0
    assert relative_conjugacy_length(g) == 2


def test_rose_equates_word_and_tree_length(mixed_group):
    rose = standard_rose(mixed_group)
    rng = random.Random(17)
    for _ in range(200):
        g = random_hyperbolic(mixed_group, rng, 20)
        assert rose.translation_length(g) == float(relative_conjugacy_length(g))


def test_translation_length_conjugation_invariant(mixed_group):
    rose = standard_rose(mixed_group)
    rng = random.Random(19)
    for _ in range(100):
        g = random_word(mixed_group, rng, 15)
        h = random_word(mixed_group, rng, 15)
        assert rose.translation_length(g.conjugate(h)) == rose.translation_length(g)


def test_translation_length_homogeneous(mixed_group):
    rose = standard_rose(mixed_group)
    rng = random.Random(21)
    for _ in range(40):
        g = random_hyperbolic(mixed_group, rng, 10)
        base = rose.translation_length(g)
        for n in range(1, 6):
            assert rose.translation_length(g**n) == n * base


def test_boundedness_witnesses(mixed_group):
    rose = standard_rose(mixed_group)
    rng = random.Random(27)
    floor = min(rose.lengths)
    for _ in range(150):
        g = random_word(mixed_group, rng, 15)
        l = rose.translation_length(g)
        if g.is_hyperbolic():
            assert l >= floor
        else:
            assert l == 0.0


# -- marking inversion -----------------------------------------------------------


class ReferenceInverter(MarkingInverter):
    """The breadth-first inverter the fold replaced, kept as the reference.

    Each loop of the standard basis (one per non-tree edge, one per vertex
    group element) is matched to a word by a search through marked images,
    to depth ``budget`` and at most ``cap`` words; it gives up with
    ``NonConvergenceError`` on markings whose basis words are longer.
    """

    def __init__(self, graph, budget=6, cap=200_000):
        self.graph = graph
        self.budget = budget
        self.cap = cap
        self._tree_paths = self._spanning_tree()
        self._basis = self._basis_words()

    def _basis_words(self):
        g, G = self.graph, self.graph.group
        tree = {x for v in range(g.n_vertices) for d, _ in self.tree_path(v).steps for x in (d, d ^ 1)}

        def through_tree(v, mid, w):
            return reduce_path(self.tree_path(v) * mid * self.tree_path(w).inverse())

        self._nontree_loop = {
            2 * m: through_tree(g.dart_tail(2 * m), GraphPath(g, g.dart_tail(2 * m), 0, ((2 * m, 0),)), g.dart_head(2 * m))
            for m in range(g.n_edges)
            if 2 * m not in tree
        }
        self._vertex_loops = {
            (v, a): through_tree(v, GraphPath(g, v, a, ()), v)
            for v in range(g.n_vertices)
            for a in range(1, g.vertex_order(v))
        }
        targets = set(self._nontree_loop.values()) | set(self._vertex_loops.values())
        found = {}
        alphabet = [G.free(j, s) for j in range(G.free_rank) for s in (1, -1)]
        alphabet += [G.factor_element(i, a) for i in range(len(G.factors)) for a in range(1, G.factors[i].order)]
        seen = {G.identity(): g.loop_of_element(G.identity())}
        frontier = [G.identity()]
        depth = 0
        while targets - found.keys() and frontier and depth < self.budget:
            depth += 1
            nxt = []
            for w in frontier:
                for s in alphabet:
                    ws = w * s
                    if ws in seen:
                        continue
                    if len(seen) > self.cap:
                        raise NonConvergenceError(f"marking inversion exceeded {self.cap} candidate words")
                    loop = reduce_path(seen[w] * g.loop_of_element(s))
                    seen[ws] = loop
                    nxt.append(ws)
                    if loop in targets and loop not in found:
                        found[loop] = ws
            frontier = nxt
        missing = targets - found.keys()
        if missing:
            raise NonConvergenceError(
                f"marking inversion: {len(missing)} basis loop(s) not matched within budget {self.budget}"
            )
        return found

    def element_of_loop(self, loop):
        g, G = self.graph, self.graph.group
        loop = reduce_path(loop)
        parts = []
        if loop.prefix:
            parts.append(self._basis[self._vertex_loops[(g.base, loop.prefix)]])
        for d, e in loop.steps:
            if d in self._nontree_loop:
                parts.append(self._basis[self._nontree_loop[d]])
            elif (d ^ 1) in self._nontree_loop:
                parts.append(self._basis[self._nontree_loop[d ^ 1]].inverse())
            if e:
                parts.append(self._basis[self._vertex_loops[(g.dart_head(d), e)]])
        return G.word(parts)


def _theta_graph(f2):
    # two vertices, three parallel edges; marking a = e f', b = e g'
    graph = MarkedMetricGraph(
        f2,
        2,
        [(0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0)],
        [None, None],
        0,
        edge_names=["e", "f", "g"],
    )
    graph.free_marking = (
        graph.path(0, [(0, 0), (3, 0)]),
        graph.path(0, [(0, 0), (5, 0)]),
    )
    return graph


def _s3():
    """The symmetric group on three letters, the smallest non-abelian vertex group."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: n for n, p in enumerate(perms)}
    return FiniteGroupTable([[index[tuple(p[k] for k in q)] for q in perms] for p in perms], "S")


def _grouped_base_graph():
    # S3 * F1 on one vertex carrying S with one petal; S is marked by the trivial path
    G = FreeProduct([_s3()], free_rank=1, free_names=["x"])
    graph = MarkedMetricGraph(G, 1, [(0, 0, 1.0)], [0], 0, edge_names=["a"])
    graph.free_marking = (graph.path(0, [(0, 0)]),)
    graph.factor_marking = (graph.path(0, []),)
    return graph


def _marked_graphs(f2):
    names = ["golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed"]
    s3_c2_f1 = FreeProduct([_s3(), FiniteGroupTable.cyclic(2, "P")], free_rank=1, free_names=["x"])
    graphs = [load_bundled(n).representative.graph for n in names]
    return graphs + [_theta_graph(f2), _grouped_base_graph(), standard_rose(s3_c2_f1)]


def test_marking_inverter_on_rose(mixed_group):
    rose = standard_rose(mixed_group)
    inv = MarkingInverter(rose)
    rng = random.Random(33)
    for _ in range(100):
        g = random_word(mixed_group, rng, 12)
        assert inv.element_of_loop(rose.loop_of_element(g)) == g


def test_marking_inverter_theta_graph(f2):
    graph = _theta_graph(f2)
    assert validate_graph(graph) == []
    inv = MarkingInverter(graph)
    rng = random.Random(35)
    for _ in range(60):
        g = random_word(f2, rng, 10)
        assert inv.element_of_loop(reduce_path(graph.loop_of_element(g))) == g


def test_marking_inverter_off_base_loop(f2):
    rose = standard_rose(f2)
    inv = MarkingInverter(rose)
    loop = rose.path(0, [(0, 0)])
    assert inv.element_of_loop_at(loop) == f2.free(0)


def _assert_inverters_agree(ref, rng, n_words=40):
    graph = ref.graph
    inv = MarkingInverter(graph)
    loops = list(ref._basis)
    loops += [reduce_path(graph.loop_of_element(random_word(graph.group, rng, 12))) for _ in range(n_words)]
    for loop in loops:
        assert inv.element_of_loop(loop) == ref.element_of_loop(loop)
    for v, loop in zip(range(graph.n_vertices), loops):
        moved = reduce_path(inv.tree_path(v).inverse() * loop * inv.tree_path(v))
        assert inv.element_of_loop_at(moved) == ref.element_of_loop_at(moved)


def test_marking_inverter_matches_reference(f2):
    rng = random.Random(37)
    graphs = _marked_graphs(f2) + [load_text(tower_text(n)).representative.graph for n in range(3, 7)]
    for graph in graphs + [load_text(chord_text(5)).representative.graph]:
        _assert_inverters_agree(ReferenceInverter(graph), rng)


def _remark(graph, rng, moves):
    """A copy of ``graph`` whose marking is precomposed with ``moves`` random automorphisms.

    The moves are free transvections and inversions, conjugating a factor
    path by a free loop or by an element of another factor, and multiplying
    a free loop by a conjugated factor element.
    """
    g = graph.with_lengths(graph.lengths)
    free, factor = list(g.free_marking), list(g.factor_marking)
    r, k = len(free), len(factor)

    def loop(j):
        return free[j] if rng.random() < 0.5 else free[j].inverse()

    def factor_loop(i):
        p = factor[i]
        return p * GraphPath(g, p.end, rng.randrange(1, g.vertex_order(p.end)), ()) * p.inverse()

    def either_side(p, q):
        return p * q if rng.random() < 0.5 else q * p

    kinds = ["invert"] * (r >= 1) + ["transvect"] * (r >= 2) + ["free conjugate", "times factor"] * (r >= 1 and k >= 1)
    kinds += ["factor conjugate"] * (k >= 2)
    for _ in range(moves):
        kind = rng.choice(kinds)
        j, i = rng.randrange(max(r, 1)), rng.randrange(max(k, 1))
        if kind == "invert":
            free[j] = free[j].inverse()
        elif kind == "transvect":
            free[j] = either_side(free[j], loop(rng.choice([x for x in range(r) if x != j])))
        elif kind == "free conjugate":
            factor[i] = loop(j) * factor[i]
        elif kind == "times factor":
            free[j] = either_side(free[j], factor_loop(i))
        else:
            factor[i] = factor_loop(rng.choice([x for x in range(k) if x != i])) * factor[i]
        free, factor = [reduce_path(p) for p in free], [reduce_path(p) for p in factor]
    g.free_marking, g.factor_marking = tuple(free), tuple(factor)
    return g


def test_marking_inverter_matches_reference_on_remarkings(f2):
    rng = random.Random(39)
    agreed = 0
    for graph in _marked_graphs(f2):
        for _ in range(8):
            remarked = _remark(graph, rng, rng.randrange(1, 4))
            try:
                ref = ReferenceInverter(remarked, cap=20_000)
            except NonConvergenceError:
                continue
            _assert_inverters_agree(ref, rng, n_words=10)
            agreed += 1
    assert agreed >= 50


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 6), moves=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_marking_inverter_round_trips_on_random_markings(f2, which, moves, seed):
    rng = random.Random(seed)
    graph = _remark(_marked_graphs(f2)[which], rng, moves)
    assert validate_graph(graph) == []
    inv = MarkingInverter(graph)
    for _ in range(15):
        w = random_word(graph.group, rng, 12)
        assert inv.element_of_loop(reduce_path(graph.loop_of_element(w))) == w


def _f2_rose_marked(f2, a, b):
    rose = standard_rose(f2)
    rose.free_marking = (rose.path(0, [(d, 0) for d in a]), rose.path(0, [(d, 0) for d in b]))
    return rose


@pytest.mark.parametrize(
    "a, b",
    [
        ([0, 0], [2]),  # a -> a a is not onto
        ([0], [0]),  # a, b -> a, a is not injective
        ([0], []),  # b -> the trivial loop
    ],
)
def test_marking_inverter_rejects_non_isomorphisms(f2, a, b):
    rose = _f2_rose_marked(f2, a, b)
    assert validate_graph(rose) == [Violation("isomorphism", "the marking is not an isomorphism")]
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        MarkingInverter(rose)


def test_validate_graph_checks_each_marking_once_and_returns_fresh_lists(f2, monkeypatch):
    rose = _f2_rose_marked(f2, [0], [2])
    calls = []
    connected = MarkedMetricGraph.connected
    monkeypatch.setattr(MarkedMetricGraph, "connected", lambda self: calls.append(self) or connected(self))
    first = validate_graph(rose)
    first.append(Violation("caller", "owns its list"))
    assert validate_graph(rose) == [] and len(calls) == 1
    rose.free_marking = (rose.path(0, [(0, 0), (0, 0)]), rose.path(0, [(2, 0)]))
    assert validate_graph(rose) == [Violation("isomorphism", "the marking is not an isomorphism")]
    assert len(calls) == 2


def test_marking_inverter_rejects_finite_order_free_loop(c2f2):
    # a -> sP P:1 sP' has order two
    graph = c2f2.representative.graph.with_lengths(c2f2.representative.graph.lengths)
    graph.free_marking = (graph.path(0, [(4, 1), (5, 0)]), graph.free_marking[1])
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        MarkingInverter(graph)


def test_marking_inverter_rejects_a_rank_mismatch(f2):
    # three petals, but the marking of F2 reaches two of them
    graph = MarkedMetricGraph(f2, 1, [(0, 0, 1.0)] * 3, [None], 0)
    graph.free_marking = (graph.path(0, [(0, 0)]), graph.path(0, [(2, 0)]))
    assert [v.code for v in validate_graph(graph)] == ["rank mismatch"]
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        MarkingInverter(graph)


def test_marking_inverter_rejects_an_unreached_vertex_group():
    # C2 * F1 with P on two spokes; the marking reaches only the first
    G = FreeProduct([FiniteGroupTable.cyclic(2, "P")], free_rank=1, free_names=["x"])
    graph = MarkedMetricGraph(G, 3, [(0, 0, 1.0), (0, 1, 0.5), (0, 2, 0.5)], [None, 0, 0], 0)
    graph.free_marking = (graph.path(0, [(0, 0)]),)
    graph.factor_marking = (graph.path(0, [(2, 0)]),)
    assert [v.code for v in validate_graph(graph)] == ["duplicate factor"]
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        MarkingInverter(graph)


def test_marking_inverter_rejects_a_vertex_group_crossed_by_a_loop_only():
    # C2 * F1 with P on a spoke and on a second vertex that x crosses, twisting there
    G = FreeProduct([FiniteGroupTable.cyclic(2, "P")], free_rank=1, free_names=["x"])
    graph = MarkedMetricGraph(G, 3, [(0, 2, 1.0), (0, 2, 1.0), (0, 1, 0.5)], [None, 0, 0], 0)
    graph.free_marking = (graph.path(0, [(0, 1), (3, 0)]),)
    graph.factor_marking = (graph.path(0, [(4, 0)]),)
    assert [v.code for v in validate_graph(graph)] == ["duplicate factor"]
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        MarkingInverter(graph)


def test_marking_inverter_rejects_two_factors_on_one_vertex():
    # C2 * C2 with both factors marked onto the one spoke: their free product is infinite
    G = FreeProduct([FiniteGroupTable.cyclic(2, "P"), FiniteGroupTable.cyclic(2, "Q")])
    graph = MarkedMetricGraph(G, 2, [(0, 1, 0.5)], [None, 0], 0)
    graph.factor_marking = (graph.path(0, [(0, 0)]), graph.path(0, [(0, 0)]))
    assert [v.code for v in validate_graph(graph)] == ["missing factor"]
    with pytest.raises(InputError, match="^the marking is not an isomorphism$"):
        MarkingInverter(graph)
