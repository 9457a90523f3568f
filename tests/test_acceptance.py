"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from outgrowth import (
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    assign_pf_metric,
    bound_check,
    classify_turns,
    cyclically_reduce,
    displacement_bracket,
    find_r_legal_hyperbolic,
    growth_report,
    index_count,
    lipschitz_constant,
    load_bundled,
    make_turn,
    r_length,
    relative_conjugacy_length,
    relative_length_function,
    standard_rose,
    tree_length_function,
    verify_representative,
    verify_train_track,
)
from outgrowth.cli import default_sample
from outgrowth.graph_map import _pf_stack
from conftest import random_hyperbolic, random_word
from test_legality import column_entries

GOLDEN = (1 + 5**0.5) / 2


@contextmanager
def criterion(number, description, seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < seconds
    print(
        f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description} "
        f"[{elapsed:.3f}s, limit {seconds}s]"
    )
    assert ok, f"runtime {elapsed:.3f}s exceeded the {seconds}s limit"


def test_criterion_1_golden_ratio_fixture():
    with criterion(1, "golden-ratio fixture meets the equality chain", 1.0):
        doc = load_bundled("golden_ratio_rose")
        rep = doc.representative
        assert verify_representative(rep) == []
        oracle = float(np.abs(np.roots([1.0, -1.0, -1.0])).max())
        mu = rep.strata().top_eigenvalue
        assert abs(mu - oracle) <= 1e-9
        metric = assign_pf_metric(rep)
        lip, _ = lipschitz_constant(rep, metric)
        assert abs(lip - mu) <= 1e-9
        a = doc.group.free(0)
        rpt = growth_report(doc.automorphism, a, tree_length_function(metric), 20)
        assert abs(rpt.estimate - mu) <= 1e-2
        bracket = displacement_bracket(rep, sample=[a, doc.group.free(1)], iterations=20)
        assert bracket.width <= 1e-2


def test_criterion_2_polynomial_fixture():
    with criterion(2, "polynomial fixture: linear orbit and (N+1)/N sweep", 1.0):
        doc = load_bundled("polynomial_rose")
        rep = doc.representative
        assert verify_representative(rep) == []
        dec = rep.strata()
        assert dec.count == 2
        assert [s.eigenvalue for s in dec.strata] == [1.0, 1.0]
        assert dec.top_eigenvalue == 1.0
        assert dec.top_stratum == 2
        b = doc.group.free(1)
        metric = assign_pf_metric(rep)
        length = tree_length_function(metric)
        w = b
        assert length(w) == 1.0
        for k in range(1, 31):
            w = doc.automorphism.apply(w)
            assert length(w) == float(k + 1)
        grid = (1.0, 10.0, 100.0, 1000.0)
        bracket = displacement_bracket(rep, n_grid=grid, sample=[b], iterations=20)
        for N, lip, _ in bracket.lipschitz:
            assert lip == (N + 1) / N
        assert bracket.upper <= 1.001
        assert bracket.lower <= bracket.upper


def test_criterion_3_free_product_fixtures():
    with criterion(3, "C3*C3 factor swap sits at 1", 2.0):
        doc = load_bundled("c3c3_swap")
        rep = doc.representative
        assert verify_representative(rep) == []
        g = doc.group.factor_element(0, 1) * doc.group.factor_element(1, 1)
        metric = assign_pf_metric(rep)
        rpt = growth_report(doc.automorphism, g, tree_length_function(metric), 20)
        assert abs(rpt.estimate - 1.0) <= 1e-2
        bracket = displacement_bracket(rep, sample=[g], iterations=20)
        assert abs(bracket.lower - 1.0) <= 1e-2
        assert abs(bracket.upper - 1.0) <= 1e-2
    with criterion(3, "C2*F2 mixed automorphism tracks its top eigenvalue", 2.0):
        doc = load_bundled("c2f2_mixed")
        rep = doc.representative
        assert verify_representative(rep) == []
        mu = rep.strata().top_eigenvalue
        metric = assign_pf_metric(rep)
        rpt = growth_report(
            doc.automorphism, doc.group.free(0), tree_length_function(metric), 20
        )
        assert abs(rpt.estimate - mu) <= 5e-2


def _irreducible_matrices(size):
    if size == 1:
        for n in range(1, 4):
            yield np.array([[n]])
        return
    count = size * size
    eye = np.eye(size, dtype=np.int64)
    batch = np.array(list(itertools.product(range(4), repeat=count)), dtype=np.int64)
    batch = batch.reshape(-1, size, size)
    reach = (batch > 0).astype(np.int64) + eye
    closure = reach
    for _ in range(size - 1):
        closure = closure @ reach
    strongly_connected = (closure > 0).all(axis=(1, 2))
    yield from batch[strongly_connected]


def _char_poly_roots_max(blocks):
    """Spectral radius from explicitly assembled characteristic polynomials."""
    blocks = np.asarray(blocks, dtype=float)
    n = blocks.shape[1]
    if n == 1:
        return blocks[:, 0, 0]
    if n == 2:
        tr = blocks[:, 0, 0] + blocks[:, 1, 1]
        det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
        companion = np.zeros_like(blocks)
        companion[:, 0, 0] = tr
        companion[:, 0, 1] = -det
        companion[:, 1, 0] = 1.0
    else:
        tr = np.trace(blocks, axis1=1, axis2=2)
        minors = (
            blocks[:, 1, 1] * blocks[:, 2, 2]
            - blocks[:, 1, 2] * blocks[:, 2, 1]
            + blocks[:, 0, 0] * blocks[:, 2, 2]
            - blocks[:, 0, 2] * blocks[:, 2, 0]
            + blocks[:, 0, 0] * blocks[:, 1, 1]
            - blocks[:, 0, 1] * blocks[:, 1, 0]
        )
        det = np.linalg.det(blocks)
        companion = np.zeros_like(blocks)
        companion[:, 0, 0] = tr
        companion[:, 0, 1] = -minors
        companion[:, 0, 2] = det
        companion[:, 1, 0] = 1.0
        companion[:, 2, 1] = 1.0
    return np.abs(np.linalg.eigvals(companion)).max(axis=1)


def test_criterion_4_pf_oracle_suite():
    with criterion(4, "certified Perron roots match char-poly roots on all small matrices", 10.0):
        for size in (1, 2, 3):
            blocks = np.array(list(_irreducible_matrices(size)))
            values, vecs = _pf_stack(blocks.astype(float))[:2]
            oracle = _char_poly_roots_max(blocks)
            assert np.abs(values - oracle).max() <= 1e-9
            sums = blocks.sum(axis=1)
            assert (sums.min(axis=1) <= values + 1e-9).all()
            assert (values <= sums.max(axis=1) + 1e-9).all()
            assert (vecs > 0).all()


def test_criterion_5_growth_bound_suite():
    with criterion(5, "tuple counts, growth bound, and polynomial degree", 5.0):
        for m in range(1, 6):
            for r in range(1, m + 1):
                for k in range(1, 9):
                    brute = sum(
                        1
                        for _ in itertools.combinations_with_replacement(range(r, m + 1), k)
                    )
                    assert index_count(k, r, m) == brute
        for name in ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed"):
            doc = load_bundled(name)
            rep = doc.representative
            for g in default_sample(doc):
                if not g.is_hyperbolic():
                    continue
                assert bound_check(rep, g, iterations=20).ok, (name, g)
            m = rep.strata().count
            values = [sum(index_count(k, r, m) for r in range(1, m + 1)) for k in range(1, m + 3)]
            diffs = values
            for _ in range(m):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(d == 0 for d in diffs)


def test_criterion_6_length_function_suite():
    with criterion(6, "rose lengths: equality, invariance, homogeneity, elliptic decay", 5.0):
        G = FreeProduct(
            [FiniteGroupTable.cyclic(2, "P"), FiniteGroupTable.cyclic(3, "Q")],
            free_rank=2,
            free_names=["x", "y"],
        )
        rose = standard_rose(G)
        rng = random.Random(2024)
        words = [random_hyperbolic(G, rng, 20) for _ in range(500)]
        for g in words:
            assert rose.translation_length(g) == float(relative_conjugacy_length(g))
        for g in words[:150]:
            h = random_word(G, rng, 15)
            assert relative_conjugacy_length(g.conjugate(h)) == relative_conjugacy_length(g)
            assert rose.translation_length(g.conjugate(h)) == rose.translation_length(g)
        for g in words[:60]:
            base_rel = relative_conjugacy_length(g)
            base_tree = rose.translation_length(g)
            for n in range(1, 6):
                assert relative_conjugacy_length(g**n) == n * base_rel
                assert rose.translation_length(g**n) == n * base_tree
        # elliptic classes stay below the uniform bound along the orbit
        x, y = G.free(0), G.free(1)
        fwd = Automorphism(
            G,
            [y * x.inverse(), x],
            permutation=[0, 1],
            isos=[(0, 1), (0, 1, 2)],
            conjugators=[x * y.inverse(), G.identity()],
        )
        back = Automorphism(
            G,
            [y, x * y],
            permutation=[0, 1],
            isos=[(0, 1), (0, 1, 2)],
            conjugators=[x, G.identity()],
        )
        fwd.inverse = back
        back.inverse = fwd
        fwd.validate()
        rel = relative_length_function(G)
        tree = tree_length_function(rose)
        for g in (G.factor_element(0, 1), G.factor_element(1, 2).conjugate(x * y)):
            w = g
            for _ in range(20):
                assert rel(w) <= rel.elliptic_bound
                assert tree(w) == 0.0
                w = fwd.apply(w)


def test_criterion_7_legality_suite():
    with criterion(7, "golden legality table, train track, stratum scaling", 1.0):
        doc = load_bundled("golden_ratio_rose")
        rep = doc.representative
        rose = doc.graph
        table = column_entries(classify_turns(rep))
        illegal = table[make_turn(rose, 0, (1, 0), (3, 0))]  # {a', b'}
        assert not illegal.legal and illegal.steps_to_degeneracy == 1
        legal = table[make_turn(rose, 0, (1, 0), (2, 0))]  # {a', b}
        assert legal.legal
        assert verify_train_track(rep).ok
        dec = rep.strata()
        mu, top = dec.top_eigenvalue, dec.top_stratum
        g = find_r_legal_hyperbolic(rep, top)
        core, _ = cyclically_reduce(rose.loop_of_element(g))
        base = r_length(rep, core, top)
        assert base > 0
        w = g
        for k in range(1, 9):
            w = rep.automorphism.apply(w)
            core, _ = cyclically_reduce(rose.loop_of_element(w))
            assert r_length(rep, core, top) == pytest.approx(mu**k * base, rel=1e-6)
