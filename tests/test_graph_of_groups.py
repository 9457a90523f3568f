import random

import pytest

from outgrowth import (
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    GraphPath,
    MarkedMetricGraph,
    MarkingInverter,
    cyclically_reduce,
    reduce_path,
    relative_conjugacy_length,
    load_bundled,
    TopologicalRepresentative,
    standard_rose,
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
    assert rose.elliptic_witness(g) == 2


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


def test_marking_inverter_on_rose(mixed_group):
    rose = standard_rose(mixed_group)
    inv = MarkingInverter(rose)
    rng = random.Random(33)
    for _ in range(100):
        g = random_word(mixed_group, rng, 12)
        assert inv.element_of_loop(rose.loop_of_element(g)) == g


def test_marking_inverter_theta_graph(f2):
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
