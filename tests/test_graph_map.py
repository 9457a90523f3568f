import itertools
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chord_text, load_text, tower_text
from outgrowth import (
    Automorphism,
    FreeProduct,
    InputError,
    NonConvergenceError,
    StrataDecomposition,
    Stratum,
    TopologicalRepresentative,
    assign_pf_metric,
    load_bundled,
    pf_eigen,
    r_length,
    rescale_family,
    standard_rose,
    stratify,
    attach_eigendata,
    transition_matrix,
    verify_representative,
)
from outgrowth import graph_map
from outgrowth.graph_map import _pf_stack, collatz_wielandt
from outgrowth.graph_of_groups import crossing_counts

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


def reference_transition_matrix(rep):
    """``transition_matrix`` as one column of crossing counts per edge image (the former loop)."""
    n = rep.graph.n_edges
    M = np.zeros((n, n), dtype=np.int64)
    for j, path in enumerate(rep.edge_images):
        M[:, j] = crossing_counts(path)
    return M


def _assert_same_transition_matrix(rep):
    got, expected = transition_matrix(rep), reference_transition_matrix(rep)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_transition_matrix_matches_the_per_column_loop_on_fixtures(golden, poly, c3c3, c2f2, f2):
    for rep in (golden.representative, poly.representative, c3c3.representative, c2f2.representative):
        _assert_same_transition_matrix(rep)
    _assert_same_transition_matrix(identity_representative(f2))


@pytest.mark.parametrize("n", [3, 10, 25, 100])
def test_transition_matrix_matches_the_per_column_loop_on_families(n):
    for text in (chord_text(n), tower_text(n)):
        _assert_same_transition_matrix(load_text(text).representative)


@st.composite
def _rose_images(draw):
    """Dart sequences, one per petal of a rose with 1..5 petals; empty ones too."""
    k = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(0, 2 * k - 1), max_size=6), min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(_rose_images())
def test_transition_matrix_matches_the_per_column_loop_hypothesis(images):
    # any dart sequences as edge images, empty ones too: the count needs no verified map
    group = FreeProduct(free_rank=len(images))
    rose = standard_rose(group)
    paths = [rose.path(0, [(d, 0) for d in darts]) for darts in images]
    _assert_same_transition_matrix(TopologicalRepresentative(rose, Automorphism.identity(group), [0], paths))


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
    assert not dec.weight_matrix[0].any()


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


def test_stratify_of_no_edges():
    for dtype in (np.int64, np.float64):
        dec = stratify(np.zeros((0, 0), dtype=dtype))
        assert (dec.strata, dec.stratum_of, dec.matrix.shape) == ((), (), (0, 0))
        assert_same_stratification(np.zeros((0, 0), dtype=dtype))


def test_stratify_places_tied_chains_of_single_edges_by_smallest_edge():
    # two interleaved chains of 1x1 strata, edge i above edge i - 2: at every step both
    # chains offer a block, so each placement is a tie; every third edge is growing
    n = 110
    M = np.zeros((n, n), dtype=np.int64)
    M[np.arange(n - 2), np.arange(2, n)] = 1
    M[np.arange(0, n, 3), np.arange(0, n, 3)] = 2
    dec = stratify(M)
    assert [s.edges for s in dec.strata] == [(e,) for e in range(n)]
    assert [s.growing for s in dec.strata] == [e % 3 == 0 for e in range(n)]
    shuffle = np.random.default_rng(110).permutation(n)
    for matrix in (M, M[::-1, ::-1], M.T, M[np.ix_(shuffle, shuffle)]):
        assert_same_stratification(matrix)


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
    assert all(w > 0 for w in dec.weight_matrix[0, list(s.edges)])


def test_pf_many_matches_single():
    blocks = np.array([[[0, 1], [1, 1]], [[0, 2], [2, 0]], [[3, 1], [2, 2]]], dtype=float)
    values, vecs = graph_map._pf_stack(blocks)[:2]
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
        (lo,), (hi,) = collatz_wielandt(M[None], np.ones((1, n)))
        assert lo - 1e-9 <= mu <= hi + 1e-9


# -- Noda roots against the dense eigensolver -------------------------------------------


def reference_perron_roots(blocks):
    """The eigenvalue of largest real part of each block, by ``np.linalg.eigvals``."""
    return np.linalg.eigvals(np.swapaxes(blocks, 1, 2)).real.max(axis=1)


def reference_pf_stack(blocks, tol=1e-12):
    """``_pf_stack`` with its root from the dense eigensolver (the former code), the tail unchanged."""
    count, n, _ = blocks.shape
    if n == 1:
        vecs = np.ones((count, 1))
        return (blocks[:, 0, 0].copy(), vecs, *collatz_wielandt(blocks, vecs))
    transposed = np.swapaxes(blocks, 1, 2)
    roots = reference_perron_roots(blocks)
    shift = np.where(roots > 0, roots, 1.0) * (1 + graph_map._INVERSE_SHIFT)
    system = transposed - shift[:, None, None] * np.eye(n)
    y = np.ones((count, n, 1))
    try:
        for _ in range(graph_map._INVERSE_STEPS):
            y = np.linalg.solve(system, y)
    except np.linalg.LinAlgError as err:
        best = (roots, np.ones((count, n)))
        raise NonConvergenceError(f"inverse iteration failed: {err}", best=best) from None
    y = np.abs(y[..., 0])
    vecs = y / y.max(axis=1, keepdims=True)
    lo, hi = collatz_wielandt(blocks, vecs)
    certified = (vecs > 0).all(axis=1) & (hi - lo <= tol * hi)
    if not certified.all():
        width = np.max(np.where(certified, 0.0, (hi - lo) / hi))
        raise NonConvergenceError(
            f"Perron root not certified on {np.count_nonzero(~certified)} of {count} blocks: "
            f"worst relative bracket width {width:.3e} (tolerance {tol})",
            best=(np.where(certified, hi, roots), vecs),
        )
    return hi, vecs, lo, hi


def _stacks(M):
    """The float stacks ``attach_eigendata`` builds from M: its growing blocks, one stack per size."""
    by_size = {}
    for s in stratify(M).strata:
        if s.growing:
            by_size.setdefault(len(s.edges), []).append(s.block)
    return [np.array(blocks, dtype=np.float64) for blocks in by_size.values()]


def _hex(values):
    return list(map(_bits, np.ravel(values).tolist()))


def test_pf_stack_matches_the_dense_oracle_bit_for_bit_on_fixtures(golden, poly, c3c3, c2f2):
    for doc in (golden, poly, c3c3, c2f2):
        for blocks in _stacks(transition_matrix(doc.representative)):
            for got, expected in zip(_pf_stack(blocks), reference_pf_stack(blocks), strict=True):
                assert _hex(got) == _hex(expected)


def _assert_brackets_hold_the_oracle_root(blocks, tol=1e-12):
    values, vecs, lo, hi = _pf_stack(blocks)
    n = blocks.shape[1]
    if n == 1:
        roots, slack = blocks[:, 0, 0], 0.0
    else:
        roots = reference_perron_roots(blocks)
        reference_pf_stack(blocks, tol)  # the oracle certifies these blocks too
        # eigvals rounds too: an exact bracket [1, 1] of a permutation meets 1 + 2^-52
        slack = 4 * n * np.finfo(np.float64).eps * roots
    assert (lo - slack <= roots).all() and (roots <= hi + slack).all()
    assert (hi - lo <= tol * hi).all()
    assert _hex(values) == _hex(hi)
    assert (vecs > 0).all() and (vecs.max(axis=1) == 1).all()


@pytest.mark.parametrize("n", [*range(3, 11), 25, 50, 100, 200])
def test_pf_stack_brackets_hold_the_oracle_root_on_families(n):
    for text in (chord_text(n), tower_text(n)):
        for blocks in _stacks(transition_matrix(load_text(text).representative)):
            _assert_brackets_hold_the_oracle_root(blocks)


@st.composite
def _irreducible_stack(draw):
    n = draw(st.integers(2, 7))
    count = draw(st.integers(1, 4))
    entries = st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    blocks = np.array(draw(st.lists(entries, min_size=count, max_size=count)), dtype=np.float64)
    return blocks + np.roll(np.eye(n), 1, axis=0)  # a cycle through every edge: irreducible


@settings(max_examples=200, deadline=None)
@given(_irreducible_stack())
def test_pf_stack_brackets_hold_the_oracle_root_hypothesis(blocks):
    _assert_brackets_hold_the_oracle_root(blocks)


def test_pf_stack_returns_the_bracket_upper_end_and_x_one_on_1x1_blocks():
    integral = [1.0, 2.0, 3.0, 7.0, 2.0**26, 2.0**52 - 1, 2.0**52]
    fractional = [2.5, 0.1, 1e-3, 1 + 2**-52, 3.75e9]
    for entries in (integral, fractional, integral + fractional):
        blocks = np.array(entries)[:, None, None]
        values, vecs, lo, hi = _pf_stack(blocks)
        assert _hex(values) == _hex(hi)
        assert (vecs == 1).all()
        assert (lo <= blocks[:, 0, 0]).all() and (blocks[:, 0, 0] <= hi).all()
        exact = blocks[:, 0, 0] == np.round(blocks[:, 0, 0])
        assert _hex(lo[exact]) == _hex(hi[exact]) == _hex(blocks[exact, 0, 0])
        for k in range(len(entries)):  # alone as in the stack
            assert [_hex(part) for part in _pf_stack(blocks[k : k + 1])] == [
                _hex(part[k : k + 1]) for part in (values, vecs, lo, hi)
            ]


def _solves(monkeypatch):
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    return calls


def test_pf_stack_gives_a_block_the_same_bits_alone_and_in_any_stack(monkeypatch):
    blocks = np.array(
        [
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # a permutation: certified by x = 1, no Noda step
            [[5, 1, 1], [1, 0, 0], [0, 1, 0]],
            [[0, 0, 1], [1, 0, 1], [0, 1, 0]],  # the chord rose n = 3
            [[0, 1, 0], [0, 0, 1], [40, 1, 0]],
        ],
        dtype=np.float64,
    )
    calls = _solves(monkeypatch)
    alone, steps = [], []
    for block in blocks:
        calls.clear()
        alone.append([_hex(part) for part in _pf_stack(block[None])])
        steps.append(len(calls) - graph_map._INVERSE_STEPS)
    assert steps == sorted(set(steps))  # each block converges after a different number of steps
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 1, 3]):
        stacked = _pf_stack(blocks[order])
        for k, b in enumerate(order):
            assert [_hex(part[k]) for part in stacked] == alone[b]


@pytest.mark.parametrize(
    "block",
    [
        [[2, 0], [1, 1]],  # reducible: the row eigenvector of the root 2 vanishes on the second edge
        [[1, 1], [0, 2]],  # reducible the other way round
        np.eye(3, k=1),  # nilpotent
        [[1, 1, 0], [1, 1, 0], [0, 0, 0]],  # a zero row and a zero column
        np.triu(np.ones((4, 4))),  # root 1 four times over: Noda creeps, and the cap ends it
        # three zero rows: x underflows to 0 on them, and Noda's ratios divide by it
        [[1, 2, 0, 0, 0, 2], [0, 0, 1, 0, 0, 1], [0, 0, 2, 2, 2, 2], *[[0] * 6] * 3],
        # reducible: the tail's x has a zero entry, so its bracket's upper end is not finite
        [[0, 1, 0, 0, 0, 0, 1], [1, 2, 0, 0, 1, 0, 0], [0, 0, 2, 0, 0, 0, 0], [0, 0, 2, 1, 1, 0, 0],
         [0, 0, 2, 1, 1, 2, 0], [0, 0, 0, 2, 0, 1, 0], [0, 0, 2, 2, 1, 0, 1]],
    ],
    ids=["reducible", "reducible-upper", "nilpotent", "zero-row", "triangular", "zero-rows", "reducible-7"],
)
def test_pf_stack_raises_on_a_block_it_cannot_certify_without_warnings(monkeypatch, block):
    block = np.array(block, dtype=np.float64)
    n = len(block)
    with pytest.raises(NonConvergenceError):
        reference_pf_stack(block[None])
    calls = _solves(monkeypatch)
    certifiable = np.roll(np.eye(n), 1, axis=0) + np.eye(n)
    for stack in (block[None], np.array([certifiable, block, block])):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError) as info:
                graph_map._pf_stack(stack)[:2]
        values, vecs = info.value.best
        assert values.shape == (len(stack),) and vecs.shape == (len(stack), n)
        assert len(calls) <= graph_map._NODA_STEPS + graph_map._INVERSE_STEPS
        if len(stack) == 1 and not block.sum(axis=0).all():
            assert len(calls) == graph_map._INVERSE_STEPS  # a zero column: left at its column sums


def test_solve_each_marks_only_the_singular_systems():
    # Noda's shift can land exactly on a root: that block's step gives NaN, its mates solve as alone
    systems = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, 0.0], [1.0, 2.0]]])
    rhs = np.ones((3, 2, 1))
    got = graph_map._solve_each(systems, rhs)
    assert np.isnan(got[1]).all()
    for k in (0, 2):
        assert _hex(got[k]) == _hex(np.linalg.solve(systems[k : k + 1], rhs[k : k + 1]))


def test_analyze_needs_no_dense_eigensolver(monkeypatch, tmp_path):
    from click.testing import CliRunner

    from outgrowth.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    path = tmp_path / "chord25.gog"
    path.write_text(chord_text(25))
    result = CliRunner().invoke(main, ["analyze", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["report"]["strata"][0]["bracket"][1] > 1


# -- batched eigendata against the per-stratum loop ------------------------------------


def reference_attach_eigendata(dec):
    """``attach_eigendata`` as one ``pf_eigen`` call and one bracket per stratum (the former loop)."""
    W = np.zeros((dec.count, dec.matrix.shape[0]))
    for s in dec.strata:
        if not s.growing:
            s.eigenvalue = 0.0
            s.bracket = (0.0, 0.0)
            continue
        value, vec = pf_eigen(s.block)
        lo, hi = collatz_wielandt(s.block[None], vec[None])
        s.eigenvalue = value
        s.bracket = (float(lo[0]), float(hi[0]))
        W[s.index - 1, list(s.edges)] = vec
    dec.weight_matrix = W
    dec.top_eigenvalue = max(s.eigenvalue for s in dec.strata)
    floor = max(s.bracket[0] for s in dec.strata)
    dec.top_stratum = max(s.index for s in dec.strata if s.bracket[1] >= floor)
    return dec


def _bits(x):
    assert type(x) is float
    return x.hex()


def _assert_same_eigendata(M):
    """Batched and per-stratum eigendata of M agree bit for bit, or both raise NonConvergenceError."""
    try:
        expected = reference_attach_eigendata(stratify(M))
    except NonConvergenceError:
        with pytest.raises(NonConvergenceError):
            attach_eigendata(stratify(M))
        return
    got = attach_eigendata(stratify(M))
    assert _bits(got.top_eigenvalue) == _bits(expected.top_eigenvalue)
    assert got.top_stratum == expected.top_stratum
    assert got.weight_matrix.dtype == expected.weight_matrix.dtype
    assert got.weight_matrix.shape == expected.weight_matrix.shape
    assert got.weight_matrix.tobytes() == expected.weight_matrix.tobytes()
    for s, t in zip(got.strata, expected.strata, strict=True):
        assert _bits(s.eigenvalue) == _bits(t.eigenvalue)
        assert tuple(map(_bits, s.bracket)) == tuple(map(_bits, t.bracket))
    return got


def test_batched_eigendata_matches_the_per_stratum_loop_on_fixtures(golden, poly, c3c3, c2f2):
    for doc in (golden, poly, c3c3, c2f2):
        _assert_same_eigendata(transition_matrix(doc.representative))


@pytest.mark.parametrize("n", [*range(3, 11), 25, 50, 100, 110])
def test_batched_eigendata_matches_the_per_stratum_loop_on_families(n):
    for text in (chord_text(n), tower_text(n)):
        _assert_same_eigendata(transition_matrix(load_text(text).representative))


@st.composite
def _block_triangular(draw):
    # irreducible diagonal blocks of mixed sizes (1x1 ones may be zero strata), arbitrary
    # counts above them, edges shuffled
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    n = sum(sizes)
    M = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    start = 0
    for size in sizes:
        M[start:, start : start + size] *= np.arange(start, n)[:, None] < start + size
        if size > 1:
            M[start : start + size, start : start + size] |= np.roll(np.eye(size, dtype=int), 1, axis=0)
        start += size
    order = draw(st.permutations(range(n)))
    return M[np.ix_(order, order)]


@settings(max_examples=200, deadline=None)
@given(_block_triangular())
def test_batched_eigendata_matches_the_per_stratum_loop_hypothesis(M):
    _assert_same_eigendata(M)


def _strata_of(*blocks):
    """A decomposition with the given diagonal blocks and nothing between them."""
    n = sum(len(b) for b in blocks)
    strata, start = [], 0
    for b in blocks:
        edges = tuple(range(start, start + len(b)))
        strata.append(Stratum(len(strata) + 1, edges, np.array(b), True))
        start += len(b)
    return StrataDecomposition(np.zeros((n, n), dtype=int), tuple(strata), ())


def test_batched_eigendata_raises_on_a_block_it_cannot_certify():
    # reducible: the row eigenvector of the root 2 vanishes on its second edge
    bad = [[2, 0], [1, 1]]
    alone = _strata_of([[3]], bad, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    with pytest.raises(NonConvergenceError) as expected:
        reference_attach_eigendata(alone)
    with pytest.raises(NonConvergenceError) as got:
        attach_eigendata(_strata_of([[3]], bad, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert str(got.value) == str(expected.value)  # a stack of one block: the same message
    # in a stack with a block it can certify, the stack raises and counts the blocks
    with pytest.raises(NonConvergenceError, match="on 1 of 2 blocks"):
        attach_eigendata(_strata_of([[0, 1], [1, 1]], bad))


def test_a_failed_certification_leaves_the_stratification_uncertified(monkeypatch):
    rep = load_bundled("c2f2_mixed").representative  # a 2x2 and a 1x1 growing stratum: two stacks
    certify, calls = graph_map._pf_stack, []

    def second_stack_fails(blocks):
        calls.append(blocks.shape)
        if len(calls) == 2:
            raise NonConvergenceError("not certified")
        return certify(blocks)

    monkeypatch.setattr(graph_map, "_pf_stack", second_stack_fails)
    with pytest.raises(NonConvergenceError):
        rep.strata()
    dec = rep.stratification()
    assert [(s.eigenvalue, s.bracket) for s in dec.strata] == [(None, None)] * dec.count
    assert (dec.weight_matrix, dec.top_eigenvalue, dec.top_stratum) == (None, None, None)
    monkeypatch.undo()
    fresh = load_bundled("c2f2_mixed").representative.strata()
    assert rep.strata() is dec
    assert [s.bracket for s in dec.strata] == [s.bracket for s in fresh.strata]
    assert np.array_equal(dec.weight_matrix, fresh.weight_matrix)


def test_cli_exits_3_on_a_stratum_it_cannot_certify(monkeypatch):
    from click.testing import CliRunner

    from outgrowth import graph_map
    from outgrowth.cli import main

    # no inverse iteration: the trial vector stays all ones, and the golden block's
    # column sums 2 and 1 bracket its root far wider than the tolerance
    monkeypatch.setattr(graph_map, "_INVERSE_STEPS", 0)
    result = CliRunner().invoke(main, ["analyze", "golden_ratio_rose"])
    assert result.exit_code == 3
    assert result.output.startswith("error (NonConvergenceError): Perron root not certified on 1 of 1 blocks")


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
    rep, scales = poly.representative, (1.0, 5.0)
    pf = assign_pf_metric(rep)
    metric = pf.with_lengths([scales[r - 1] * w for r, w in zip(rep.strata().stratum_of, pf.lengths)])
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
    assert zero[0].eigenvalue == 0.0 and not dec.weight_matrix[zero[0].index - 1].any()
    metric = assign_pf_metric(rep)
    assert metric.lengths[0] == 1.0
    assert metric.lengths[1] == metric.lengths[2] == 1.0
