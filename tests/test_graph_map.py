import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import chord_text, load_text, tower_text
from outgrowth import (
    Automorphism,
    InputError,
    NonConvergenceError,
    StrataDecomposition,
    Stratum,
    TopologicalRepresentative,
    assign_pf_metric,
    pf_eigen,
    pf_eigen_many,
    r_length,
    rescale_family,
    standard_rose,
    stratify,
    attach_eigendata,
    transition_matrix,
    verify_representative,
)
from outgrowth.graph_map import collatz_wielandt

GOLDEN = (1 + 5**0.5) / 2


def identity_representative(group):
    rose = standard_rose(group)
    auto = Automorphism.identity(group)
    edges = [rose.path(rose.edge_ends[m][0], [(2 * m, 0)]) for m in range(rose.n_edges)]
    isos = {
        v: tuple(range(rose.vertex_order(v)))
        for v in range(rose.n_vertices)
        if rose.vertex_factor[v] is not None
    }
    return TopologicalRepresentative(
        rose, auto, list(range(rose.n_vertices)), edges, vertex_isos=isos
    )


# -- verification ------------------------------------------------------------------


def test_identity_representative_verifies(f2, mixed_group):
    for G in (f2, mixed_group):
        rep = identity_representative(G)
        assert verify_representative(rep) == []


def test_golden_fixture_verifies(golden):
    assert verify_representative(golden.representative) == []


def test_marking_mismatch_detected(golden, f2):
    rep = golden.representative
    wrong = Automorphism.identity(golden.group)
    bad = TopologicalRepresentative(
        golden.graph, wrong, rep.vertex_images, rep.edge_images, rep.tether
    )
    codes = [v for v in verify_representative(bad) if v.code == "marking mismatch"]
    assert codes and "generator" not in codes[0].code


def test_point_image_rejected(golden):
    rep = golden.representative
    collapsed = list(rep.edge_images)
    collapsed[0] = golden.graph.trivial_path(0)
    bad = TopologicalRepresentative(
        golden.graph, golden.automorphism, rep.vertex_images, collapsed, rep.tether
    )
    assert any(v.code == "edge images" for v in verify_representative(bad))


# -- transition matrices ---------------------------------------------------------


def test_transition_identity(f2):
    rep = identity_representative(f2)
    assert np.array_equal(transition_matrix(rep), np.eye(2, dtype=int))


def test_transition_golden(golden):
    assert np.array_equal(transition_matrix(golden.representative), [[0, 1], [1, 1]])


def test_transition_polynomial(poly):
    assert np.array_equal(transition_matrix(poly.representative), [[1, 1], [0, 1]])


def test_transition_counts_both_orientations(f2):
    a, b = f2.free(0), f2.free(1)
    rose = standard_rose(f2)
    auto = Automorphism(
        f2,
        [a, a * b * a.inverse()],
        inverse=Automorphism(f2, [a, a.inverse() * b * a]),
    )
    rep = TopologicalRepresentative(
        rose,
        auto,
        [0],
        [rose.path(0, [(0, 0)]), rose.path(0, [(0, 0), (2, 0), (1, 0)])],
    )
    assert verify_representative(rep) == []
    assert np.array_equal(transition_matrix(rep), [[1, 2], [0, 1]])


# -- stratification ----------------------------------------------------------------


def test_stratify_single_block():
    dec = stratify(np.array([[0, 1], [1, 1]]))
    assert dec.count == 1
    assert dec.strata[0].edges == (0, 1)
    assert dec.strata[0].growing


def test_stratify_two_blocks():
    dec = stratify(np.array([[1, 1], [0, 1]]))
    assert [s.edges for s in dec.strata] == [(0,), (1,)]
    assert all(np.array_equal(s.block, [[1]]) for s in dec.strata)


def test_stratify_zero_block():
    dec = stratify(np.zeros((1, 1), dtype=int))
    assert dec.count == 1
    assert not dec.strata[0].growing
    attach_eigendata(dec)
    assert dec.strata[0].eigenvalue == 0.0
    assert dec.strata[0].weights is None


def _reference_scc(M: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the digraph j -> i when M[i, j] > 0 (iterative Tarjan)."""
    n = M.shape[0]
    succ = [[i for i in range(n) if M[i, j] > 0] for j in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def reference_stratify(M: np.ndarray) -> StrataDecomposition:
    """Tarjan's components, ordered by repeatedly placing the sink with the smallest edge.

    The stratification ``stratify`` replaced; kept as the differential oracle.
    """
    M = np.asarray(M)
    comps = [sorted(c) for c in _reference_scc(M)]
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    # arcs between components follow the arrows j -> i of the edge digraph
    out_arcs: list[set[int]] = [set() for _ in comps]
    in_arcs: list[set[int]] = [set() for _ in comps]
    for i, j in np.argwhere(M > 0):
        ci, cj = comp_of[int(i)], comp_of[int(j)]
        if ci != cj:
            out_arcs[cj].add(ci)
            in_arcs[ci].add(cj)
    placed: list[int] = []
    remaining = set(range(len(comps)))
    pending_out = [set(s) for s in out_arcs]
    while remaining:
        sinks = [c for c in remaining if not pending_out[c]]
        chosen = min(sinks, key=lambda c: comps[c][0])
        placed.append(chosen)
        remaining.discard(chosen)
        for c in in_arcs[chosen]:
            pending_out[c].discard(chosen)
    strata = []
    stratum_of = [0] * M.shape[0]
    for pos, ci in enumerate(placed, start=1):
        edges = tuple(comps[ci])
        block = M[np.ix_(edges, edges)]
        strata.append(Stratum(pos, edges, block, bool(block.any())))
        for e in edges:
            stratum_of[e] = pos
    return StrataDecomposition(M, tuple(strata), tuple(stratum_of))


def assert_same_stratification(M):
    got, want = stratify(M), reference_stratify(M)
    assert got.stratum_of == want.stratum_of
    assert len(got.strata) == len(want.strata)
    for s, t in zip(got.strata, want.strata):
        assert (s.index, s.edges, s.growing) == (t.index, t.edges, t.growing)
        assert all(type(e) is int for e in s.edges)
        assert s.block.dtype == t.block.dtype and np.array_equal(s.block, t.block)


def test_stratify_matches_reference_random():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        n = int(rng.integers(0, 12))
        density = rng.random()
        M = rng.integers(1, 3, size=(n, n)) * (rng.random((n, n)) < density)
        assert_same_stratification(M)


def test_stratify_matches_reference_fixtures(golden, poly, c3c3, c2f2):
    reps = [doc.representative for doc in (golden, poly, c3c3, c2f2)]
    reps.append(_zero_stratum_representative())
    for rep in reps:
        assert_same_stratification(transition_matrix(rep))


@pytest.mark.parametrize("n", [3, 10, 25, 50, 100, 110, 200])
def test_stratify_matches_reference_families(n):
    for text in (chord_text(n), tower_text(n)):
        M = transition_matrix(load_text(text).representative)
        assert_same_stratification(M)
        assert_same_stratification(M[::-1, ::-1])  # the smallest edge now sits on top


def test_block_triangularity_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 7)
        M = np.array([[rng.randrange(3) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)])
        dec = stratify(M)
        for i in range(n):
            for j in range(n):
                if M[i, j] > 0:
                    assert dec.stratum_of[i] <= dec.stratum_of[j]
        # diagonal blocks are zero or irreducible (size-1 handled by zero test)
        for s in dec.strata:
            if len(s.edges) > 1:
                assert s.growing


def test_eigenvalue_multiset_is_permutation_invariant():
    rng = random.Random(5)
    base = np.array([[0, 1, 0], [1, 1, 0], [1, 2, 1]])
    dec = attach_eigendata(stratify(base))
    values = sorted(s.eigenvalue for s in dec.strata)
    top = dec.top_eigenvalue
    for perm in itertools.permutations(range(3)):
        P = np.eye(3, dtype=int)[list(perm)]
        M = P @ base @ P.T
        dec2 = attach_eigendata(stratify(M))
        assert sorted(s.eigenvalue for s in dec2.strata) == pytest.approx(values)
        assert dec2.top_eigenvalue == pytest.approx(top)


def test_top_stratum_ties_take_highest(poly):
    dec = poly.representative.strata()
    assert dec.top_eigenvalue == 1.0
    assert dec.top_stratum == 2


def test_top_stratum_conjugate_blocks_tie():
    """Conjugate blocks share their root; rounding must not decide which stratum is on top."""
    rng = random.Random(11)
    for _ in range(300):
        B = np.array([[rng.randrange(4) for _ in range(3)] for _ in range(3)])
        B += np.roll(np.eye(3, dtype=int), 1, axis=0)  # force a cycle: irreducible
        P = np.eye(3, dtype=int)[rng.sample(range(3), 3)]
        M = np.zeros((6, 6), dtype=int)
        M[:3, :3] = B
        M[3:, 3:] = P @ B @ P.T
        M[:3, 3:] = 1  # the upper block's images cross the lower block
        dec = attach_eigendata(stratify(M))
        assert dec.count == 2
        assert dec.top_stratum == 2


def test_top_eigenvalue_at_least_one_on_verified_representatives(golden, poly, c3c3, c2f2, f2):
    reps = [doc.representative for doc in (golden, poly, c3c3, c2f2)]
    reps.append(identity_representative(f2))
    for rep in reps:
        assert verify_representative(rep) == []
        dec = rep.strata()
        assert dec.top_eigenvalue >= 1.0
        assert any(s.growing for s in dec.strata)


# -- Perron-Frobenius ---------------------------------------------------------------


def _char_poly_top_root(block):
    return float(np.abs(np.roots(np.poly(np.asarray(block, dtype=float)))).max())


def test_pf_golden_matrix():
    mu, vec = pf_eigen(np.array([[0, 1], [1, 1]]))
    assert mu == pytest.approx(GOLDEN, abs=1e-9)
    assert mu == pytest.approx(_char_poly_top_root([[0, 1], [1, 1]]), abs=1e-9)
    assert vec == pytest.approx([1 / GOLDEN, 1.0], abs=1e-9)


def test_pf_one_by_one_exact():
    for n in (1, 2, 3, 7):
        mu, vec = pf_eigen(np.array([[n]]))
        assert mu == float(n)
        assert vec.tolist() == [1.0]


def test_pf_periodic_matrix():
    mu, vec = pf_eigen(np.array([[0, 2], [2, 0]]))
    assert mu == pytest.approx(2.0, abs=1e-12)
    assert vec == pytest.approx([1.0, 1.0], abs=1e-9)


def test_pf_rejects_zero_block():
    with pytest.raises(InputError):
        pf_eigen(np.zeros((2, 2)))


def test_pf_rejects_uncertified_block():
    # reducible: the row eigenvector of the root 2 vanishes on the second edge,
    # and the nilpotent block has root 0
    for block in ([[2, 0], [1, 1]], [[0, 1], [0, 0]]):
        with pytest.raises(NonConvergenceError) as info:
            pf_eigen(np.array(block))
        values, vecs = info.value.best
        assert values.shape == (1,)
        assert vecs.shape == (1, 2)


def _chord_root_interval(n, bits=80):
    """[a, b] of width 2^-bits around the root > 1 of x^n - x - 1, by bisection in rationals.

    The polynomial is increasing on [1, 2], negative at 1 and positive at 2.
    """
    a, b = Fraction(1), Fraction(2)
    for _ in range(bits):
        m = (a + b) / 2
        if m**n - m - 1 < 0:
            a = m
        else:
            b = m
    return a, b


@pytest.mark.parametrize("n", [25, 50, 100, 200])
def test_pf_bracket_contains_chord_root(n):
    dec = load_text(chord_text(n)).representative.strata()
    assert dec.count == 1
    s = dec.strata[0]
    lo, hi = s.bracket
    a, b = _chord_root_interval(n)
    assert Fraction(lo) <= a and b <= Fraction(hi)
    assert hi - lo <= 1e-12 * hi
    assert s.eigenvalue == hi == dec.top_eigenvalue
    assert all(w > 0 for w in s.weights.values())


def test_pf_many_matches_single():
    blocks = np.array([[[0, 1], [1, 1]], [[0, 2], [2, 0]], [[3, 1], [2, 2]]], dtype=float)
    values, vecs = pf_eigen_many(blocks)
    for k in range(3):
        mu, vec = pf_eigen(blocks[k])
        assert values[k] == pytest.approx(mu, abs=1e-11)
        assert vecs[k] == pytest.approx(vec, abs=1e-9)


def test_column_sum_sandwich_random():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(2, 5)
        M = np.array([[rng.randrange(4) for _ in range(n)] for _ in range(n)])
        M += np.roll(np.eye(n, dtype=int), 1, axis=0)  # force a cycle: irreducible
        mu, _ = pf_eigen(M)
        (lo,), (hi,) = collatz_wielandt(M, np.ones(n))
        assert lo - 1e-9 <= mu <= hi + 1e-9


# -- stratum lengths and metrics -----------------------------------------------------


def test_r_length_examples(poly):
    rep = poly.representative
    rose = poly.graph
    empty = rose.trivial_path(0)
    assert r_length(rep, empty, 1) == 0.0
    assert r_length(rep, empty, 2) == 0.0
    a_edge = rose.path(0, [(0, 0)])
    assert r_length(rep, a_edge, 1) == 1.0
    ab = rose.path(0, [(0, 0), (2, 0)])
    assert r_length(rep, ab, 1) == 1.0
    assert r_length(rep, ab, 2) == 1.0


def test_assign_pf_metric_golden(golden):
    metric = assign_pf_metric(golden.representative)
    assert metric.lengths[0] == pytest.approx(1 / GOLDEN, abs=1e-9)
    assert metric.lengths[1] == 1.0
    image_b = sum(metric.lengths[d >> 1] for d, _ in golden.representative.edge_images[1].steps)
    assert image_b / metric.lengths[1] == pytest.approx(GOLDEN, abs=1e-9)


def test_assign_pf_metric_identity(f2):
    rep = identity_representative(f2)
    metric = assign_pf_metric(rep)
    assert metric.lengths == (1.0, 1.0)


def test_assign_pf_metric_scales(poly):
    metric = assign_pf_metric(poly.representative, [1.0, 5.0])
    assert metric.lengths == (1.0, 5.0)


def test_rescale_family(poly, golden):
    base = rescale_family(poly.representative, 1.0)
    assert base.lengths == (1.0, 1.0)
    scaled = rescale_family(poly.representative, 10.0)
    assert scaled.lengths == (10.0, 100.0)
    # single stratum: uniform scaling
    g1 = rescale_family(golden.representative, 7.0)
    g0 = rescale_family(golden.representative, 1.0)
    assert g1.lengths[0] / g0.lengths[0] == pytest.approx(7.0)
    assert g1.lengths[1] / g0.lengths[1] == pytest.approx(7.0)


def test_rescale_family_overflow_is_input_error():
    rep = load_text(tower_text(110)).representative
    with pytest.raises(InputError, match="110 strata"):
        rescale_family(rep, 1000.0)


def _zero_stratum_representative():
    """A dangling edge whose endpoint collapses: its orbit forms a zero block."""
    from outgrowth import FreeProduct, MarkedMetricGraph

    F = FreeProduct(free_rank=2, free_names=["a", "b"])
    graph = MarkedMetricGraph(
        F,
        2,
        [(1, 0, 1.0), (1, 1, 1.0), (1, 1, 1.0)],  # hanging edge e, petals p and q
        [None, None],
        base=1,
        edge_names=["e", "p", "q"],
    )
    graph.free_marking = (graph.path(1, [(2, 0)]), graph.path(1, [(4, 0)]))
    auto = Automorphism.identity(F)
    rep = TopologicalRepresentative(
        graph,
        auto,
        [1, 1],  # the dangling vertex collapses onto the base
        [graph.path(1, [(2, 0)]), graph.path(1, [(2, 0)]), graph.path(1, [(4, 0)])],
    )
    return rep


def test_zero_stratum_lengths():
    rep = _zero_stratum_representative()
    assert verify_representative(rep) == []
    dec = rep.strata()
    zero = [s for s in dec.strata if not s.growing]
    assert len(zero) == 1 and zero[0].edges == (0,)
    assert zero[0].eigenvalue == 0.0 and zero[0].weights is None
    metric = assign_pf_metric(rep, 1.0, zero_length=0.25)
    assert metric.lengths[0] == 0.25
    assert metric.lengths[1] == metric.lengths[2] == 1.0
    with pytest.raises(InputError):
        assign_pf_metric(rep, 1.0, zero_length=None)
    with pytest.raises(InputError):
        assign_pf_metric(rep, [1.0])  # wrong number of scales
