import itertools
import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from outgrowth import (
    FREE,
    Automorphism,
    InputError,
    ResourceLimitError,
    assign_pf_metric,
    bound_check,
    coefficient_matrix,
    cyclically_reduce,
    displacement_bracket,
    growth_rate_estimate,
    growth_report,
    growth_sequence,
    index_count,
    lipschitz_constant,
    load_bundled,
    r_length,
    relative_length_function,
    rescale_family,
    transition_matrix,
    tree_length_function,
    verify_representative,
    verify_train_track,
)
from outgrowth.cli import default_sample, main
from outgrowth.dynamics import GROWTH_TOLERANCE, N_GRID, WORD_GUARD, off_diagonal_product
from outgrowth.document import parse_word
from outgrowth.free_product import word_str
from outgrowth.graph_of_groups import MarkedMetricGraph
from conftest import _rose_document, chord_text, load_text, random_hyperbolic, random_word, tower_text
from test_document_cli import IDENTITY_DOC
from test_graph_map import identity_representative

GOLDEN = (1 + 5**0.5) / 2


# -- growth sequences ---------------------------------------------------------------


def test_growth_sequence_identity_constant(mixed_group):
    auto = Automorphism.identity(mixed_group)
    g = mixed_group.free(0) * mixed_group.factor_element(0, 1)
    length = relative_length_function(mixed_group)
    rpt = growth_sequence(auto, g, length, 10)
    assert rpt.values == [2.0] * 11


def test_growth_sequence_golden_fibonacci(golden):
    length = relative_length_function(golden.group)
    rpt = growth_sequence(golden.automorphism, golden.group.free(0), length, 12)
    fib = [1, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    assert rpt.values == [float(x) for x in fib]


def test_growth_sequence_polynomial_linear(poly):
    length = tree_length_function(poly.graph)
    rpt = growth_sequence(poly.automorphism, poly.group.free(1), length, 30)
    assert rpt.values == [float(k + 1) for k in range(31)]


def test_growth_sequence_word_guard(golden):
    length = relative_length_function(golden.group)
    with pytest.raises(ResourceLimitError) as err:
        growth_sequence(golden.automorphism, golden.group.free(0), length, 40, guard=100)
    partial = err.value.partial
    assert partial is not None and len(partial.values) >= 5


# -- estimates -----------------------------------------------------------------------


def test_estimate_constant_sequence(mixed_group):
    auto = Automorphism.identity(mixed_group)
    g = mixed_group.free(0)
    rpt = growth_report(auto, g, relative_length_function(mixed_group), 10)
    assert rpt.estimate == 1.0
    assert rpt.converged


def test_estimate_fibonacci_hits_golden(golden):
    length = relative_length_function(golden.group)
    rpt = growth_report(golden.automorphism, golden.group.free(0), length, 20)
    assert rpt.estimate == pytest.approx(GOLDEN, abs=1e-2)


def test_estimate_linear_flags_unconverged(poly):
    length = tree_length_function(poly.graph)
    rpt = growth_report(poly.automorphism, poly.group.free(1), length, 30)
    assert rpt.estimate <= 1.2
    assert not rpt.converged
    assert rpt.note == "unconverged-to-1-from-above"


def test_estimate_elliptic_tree_length(c2f2):
    length = tree_length_function(c2f2.graph)
    g = c2f2.group.factor_element(0, 1)
    rpt = growth_report(c2f2.automorphism, g, length, 10)
    assert rpt.values == [0.0] * 11
    assert rpt.estimate == 0.0


# -- spectral growth and Lipschitz constants ---------------------------------------


def test_spectral_identity(f2):
    dec = identity_representative(f2).strata()
    mu, top = dec.top_eigenvalue, dec.top_stratum
    assert mu == 1.0
    assert top == 2  # ties resolve to the highest stratum


def test_spectral_golden(golden):
    dec = golden.representative.strata()
    mu, top = dec.top_eigenvalue, dec.top_stratum
    assert mu == pytest.approx(GOLDEN, abs=1e-9)
    assert top == 1


def test_spectral_polynomial(poly):
    dec = poly.representative.strata()
    mu, top = dec.top_eigenvalue, dec.top_stratum
    assert mu == 1.0
    assert top == 2


def test_lipschitz_identity(f2):
    rep = identity_representative(f2)
    lip, _ = lipschitz_constant(rep, assign_pf_metric(rep))
    assert lip == 1.0


def test_lipschitz_golden_pf_metric(golden):
    rep = golden.representative
    lip, _ = lipschitz_constant(rep, assign_pf_metric(rep))
    assert lip == pytest.approx(GOLDEN, abs=1e-9)


def test_lipschitz_polynomial_scaled(poly):
    rep = poly.representative
    pf = assign_pf_metric(rep)
    for N in (1.0, 5.0, 10.0):
        scales = (1.0, N)
        metric = pf.with_lengths([scales[r - 1] * w for r, w in zip(rep.strata().stratum_of, pf.lengths)])
        lip, witness = lipschitz_constant(rep, metric)
        assert lip == max(1.0, (N + 1) / N)
        assert witness == 1


# -- stretching factors -----------------------------------------------------------


def test_stretch_twisted_marking_bounded_by_top_eigenvalue(golden):
    # On the eigenvector metric the twisted-marking copy (l_S(g) = l_T(g alpha))
    # stretches every sampled class by exactly the top eigenvalue.
    from outgrowth import GraphPath

    base = assign_pf_metric(golden.representative)
    twisted = base.with_lengths(base.lengths)
    twisted.free_marking = tuple(
        GraphPath(twisted, p.start, p.prefix, p.steps)
        for p in (base.loop_of_element(img) for img in golden.automorphism.free_images)
    )
    G = golden.group
    for g in [G.free(0), G.free(1), G.free(0) * G.free(1)]:
        ratio = twisted.translation_length(g) / base.translation_length(g)
        assert ratio <= GOLDEN + 1e-9
        assert ratio == pytest.approx(GOLDEN, rel=1e-9)


# -- displacement brackets -----------------------------------------------------------


def test_displacement_golden_bracket(golden):
    G = golden.group
    rpt = displacement_bracket(golden.representative, sample=[G.free(0), G.free(1)])
    assert rpt.lower == pytest.approx(GOLDEN, abs=1e-2)
    assert rpt.upper == pytest.approx(GOLDEN, abs=1e-9)
    assert rpt.lower <= rpt.upper
    assert rpt.width <= 1e-2


def test_displacement_polynomial_bracket(poly):
    G = poly.group
    rpt = displacement_bracket(poly.representative, sample=[G.free(1)], iterations=30)
    lips = {n: lip for n, lip, _ in rpt.lipschitz}
    assert lips == {1.0: 2.0, 10.0: 1.1, 100.0: 1.01, 1000.0: 1.001}
    assert rpt.upper == 1.001
    assert rpt.upper_at == 1000.0
    assert rpt.lower == 1.0
    assert rpt.monotone


def test_displacement_identity(f2):
    rep = identity_representative(f2)
    rpt = displacement_bracket(rep, sample=[f2.free(0)])
    assert rpt.bracket == (1.0, 1.0)


def test_displacement_lower_never_exceeds_upper(golden, poly, c3c3, c2f2):
    from outgrowth.cli import default_sample

    for doc in (golden, poly, c3c3, c2f2):
        rpt = displacement_bracket(doc.representative, sample=default_sample(doc))
        assert rpt.lower <= rpt.upper + 1e-9


def test_displacement_lower_side_ignores_estimates_above_upper():
    # a10 doubles at every step while k < 10, so six iterations look converged at 2
    doc = load_text(tower_text(12))
    rpt = displacement_bracket(doc.representative, sample=[doc.group.free(9)], iterations=6)
    growth = rpt.growth_reports[0]
    assert growth.converged and growth.estimate > rpt.upper
    assert "not used as a lower bound" in growth.note
    assert rpt.lower == 1.0 <= rpt.upper


def test_displacement_keeps_its_bracket_when_a_sample_orbit_trips_the_guard(tmp_path):
    # a_k doubles at every step while k < 25, so the orbits of a15 .. a25 pass 10^6 darts at step 20
    text = tower_text(25)
    doc = load_text(text)
    rpt = displacement_bracket(doc.representative, N_GRID, 20, default_sample(doc))
    assert rpt.bracket == (1.0, 1.001)
    tripped = rpt.growth_reports[14:]
    assert [word_str(g.element) for g in tripped] == [f"a{k}" for k in range(15, 26)]
    for growth in tripped:
        assert growth.note == "loop length exceeded the guard (1000000 darts) at step 20"
        assert growth.converged is False and growth.estimate is None and len(growth.values) == 20
    assert all("guard" not in g.note for g in rpt.growth_reports[:14])
    path = tmp_path / "tower25.gog"
    path.write_text(text)
    result = CliRunner().invoke(main, ["displacement", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["report"]["bracket"] == [1.0, 1.001]
    result = CliRunner().invoke(main, ["bound", str(path), "--element", "a25"])
    assert result.exit_code == 4


def test_equality_chain_at_desk_scale(golden, poly, c3c3, c2f2):
    # the growth of the stratum-legal element squeezes the top eigenvalue
    # from below while the rescaled Lipschitz sweep squeezes it from above
    from outgrowth import find_r_legal_hyperbolic

    tol = 5e-2
    for doc in (golden, poly, c3c3, c2f2):
        rep = doc.representative
        dec = rep.strata()
        mu, top = dec.top_eigenvalue, dec.top_stratum
        g = find_r_legal_hyperbolic(rep, top)
        metric = assign_pf_metric(rep)
        rpt = growth_report(doc.automorphism, g, tree_length_function(metric), 20)
        assert rpt.estimate >= mu - tol
        bracket = displacement_bracket(rep, sample=[g], iterations=20)
        assert bracket.upper <= mu + tol


def nielsen_rose_text(n: int, moves: list[tuple[int, int]]) -> str:
    """The positive automorphism of F_n composed of the Nielsen moves a_i -> a_i a_j, in order.

    Composing on the right keeps every image positive: the image of a_i
    becomes the image of a_i followed by that of a_j.  The inverse of each
    move, a_i -> a_i a_j', is substituted into the inverse images, which the
    parser reduces.
    """
    names = [f"a{i}" for i in range(1, n + 1)]
    images = [[a] for a in names]
    inverse = [[a] for a in names]
    for i, j in moves:
        images[i] = images[i] + images[j]
        undo = {names[i]: [names[i], names[j] + "'"], names[i] + "'": [names[j], names[i] + "'"]}
        inverse = [[y for x in w for y in undo.get(x, [x])] for w in inverse]
    return _rose_document(images, inverse)


@st.composite
def _nielsen_roses(draw):
    """2..5 petals, 1..6 Nielsen moves and 1..3 positive sample words as petal indices."""
    n = draw(st.integers(2, 5))
    move = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda m: (m[0], (m[0] + m[1]) % n))
    moves = draw(st.lists(move, min_size=1, max_size=6))
    words = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=3))
    return n, moves, words


@settings(max_examples=60, deadline=None)
@given(_nielsen_roses())
def test_inequality_chain_on_positive_rose_automorphisms(case):
    # positive images take only legal turns, so each map is a train track, and a
    # positive sample word is a legal loop: growth <= displacement <= Lipschitz
    n, moves, words = case
    doc = load_text(nielsen_rose_text(n, moves))
    rep = doc.representative
    assert verify_representative(rep) == [] and verify_train_track(rep)
    # 20 iterations, or fewer where an orbit would pass the guard: the loop of a
    # positive word crosses each petal once per letter, and M counts the crossings
    M = transition_matrix(rep).tolist()
    iterations = 20
    for word in words:
        counts = [word.count(i) for i in range(n)]
        for k in range(iterations):
            counts = [sum(m * c for m, c in zip(row, counts)) for row in M]
            if sum(counts) > WORD_GUARD:
                iterations = k
                break
    sample = [doc.group.word([(FREE, i, 1) for i in word]) for word in words]
    rpt = displacement_bracket(rep, N_GRID, iterations, sample)
    for growth in rpt.growth_reports:
        if growth.converged:
            assert growth.estimate <= rpt.upper * (1 + GROWTH_TOLERANCE)
    assert rpt.top_eigenvalue <= rpt.upper * (1 + 1e-12)
    if rep.strata().count == 1:
        assert rpt.upper == pytest.approx(rpt.top_eigenvalue, rel=1e-12, abs=0.0)


def test_hyperbolic_growth_values_respect_floor(golden, c2f2):
    rng = random.Random(61)
    for doc in (golden, c2f2):
        metric = assign_pf_metric(doc.representative)
        length = tree_length_function(metric)
        for _ in range(5):
            g = random_hyperbolic(doc.group, rng, 6)
            rpt = growth_report(doc.automorphism, g, length, 12)
            assert all(v >= length.hyperbolic_floor for v in rpt.values)
            assert rpt.estimate >= 1.0


def test_submultiplicativity_under_lipschitz(golden, c2f2):
    rng = random.Random(57)
    for doc in (golden, c2f2):
        rep = doc.representative
        metric = assign_pf_metric(rep)
        lip, _ = lipschitz_constant(rep, metric)
        length = tree_length_function(metric)
        for _ in range(10):
            g = random_hyperbolic(doc.group, rng, 8)
            rpt = growth_sequence(doc.automorphism, g, length, 10)
            for k in range(11):
                assert rpt.values[k] <= lip**k * rpt.values[0] * (1 + 1e-9)


def test_word_and_tree_growth_agree_on_rose(c2f2):
    # the bundled graph is the standard rose, where the two length functions
    # coincide on hyperbolic classes, hence give identical growth data
    G = c2f2.group
    rel = relative_length_function(G)
    tree = tree_length_function(c2f2.graph)
    rng = random.Random(59)
    for _ in range(10):
        g = random_hyperbolic(G, rng, 8)
        r1 = growth_report(c2f2.automorphism, g, rel, 12)
        r2 = growth_report(c2f2.automorphism, g, tree, 12)
        assert r1.values == r2.values
        assert r1.estimate == pytest.approx(r2.estimate, abs=1e-12)


def test_elliptic_decay(c2f2, c3c3):
    for doc in (c2f2, c3c3):
        G = doc.group
        g = G.factor_element(0, 1)
        rel = relative_length_function(G)
        rpt = growth_sequence(doc.automorphism, g, rel, 15)
        assert all(v <= rel.elliptic_bound for v in rpt.values)
        tree = tree_length_function(doc.graph)
        rpt2 = growth_sequence(doc.automorphism, g, tree, 15)
        assert all(v == 0.0 for v in rpt2.values)


# -- the train-track fast path ----------------------------------------------------------


@pytest.fixture
def apply_calls(monkeypatch):
    """Counts Automorphism.apply calls, which only the word path makes."""
    calls = []
    original = Automorphism.apply

    def counting(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(Automorphism, "apply", counting)
    return calls


def _fast_path_cases():
    """(name, document, iterations) over the fixtures, chord roses and towers."""
    for name in ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed"):
        yield name, load_bundled(name), 16
    for n in range(3, 7):
        yield f"chord{n}", load_text(chord_text(n)), 20
    for n in range(3, 9):
        yield f"tower{n}", load_text(tower_text(n)), 12


def test_fast_path_values_equal_word_path(apply_calls):
    rng = random.Random(71)
    fast_runs = 0
    for name, doc, iterations in _fast_path_cases():
        rep = doc.representative
        assert verify_representative(rep) == []
        sample = default_sample(doc) + [random_hyperbolic(doc.group, rng, 5) for _ in range(6)]
        for metric in (doc.graph, assign_pf_metric(rep)):
            length = tree_length_function(metric)
            for g in sample:
                word = growth_sequence(doc.automorphism, g, length, iterations)
                del apply_calls[:]
                fast = growth_sequence(doc.automorphism, g, length, iterations, rep=rep)
                assert fast.values == word.values, (name, repr(g))
                fast_runs += not apply_calls
    assert fast_runs >= 200  # 256 of 286 runs; the rest take the word path


def test_fast_path_runs_without_rewriting_words(golden, apply_calls):
    rep = golden.representative
    length = tree_length_function(golden.graph)
    b = golden.group.free(1)
    assert verify_representative(rep) == []
    del apply_calls[:]
    rpt = growth_report(golden.automorphism, b, length, 27, rep=rep)
    assert apply_calls == []
    fib = [1, 2]
    while len(fib) < 28:
        fib.append(fib[-1] + fib[-2])
    assert rpt.values == [float(x) for x in fib]


def test_fast_path_rejects_a_representative_of_another_automorphism(golden, poly):
    length = tree_length_function(golden.graph)
    with pytest.raises(InputError):
        growth_sequence(golden.automorphism, golden.group.free(0), length, 5, rep=poly.representative)


def test_illegal_loop_on_a_train_track_keeps_the_word_path(apply_calls):
    # a train track whose turn {a1, a2} is illegal: both directions map to a1
    doc = load_text(_rose_document([["a1", "a2"], ["a1", "a2", "a1"]], [["a1'", "a2"], ["a2'", "a1", "a1"]]))
    rep = doc.representative
    assert verify_representative(rep) == [] and verify_train_track(rep).ok
    assert not rep.legality().legal((0, 0), (2, 0))
    length = tree_length_function(doc.graph)
    del apply_calls[:]
    illegal = growth_sequence(doc.automorphism, parse_word(doc.group, "a2' a1"), length, 5, rep=rep)
    assert illegal.values == [2.0, 1.0, 2.0, 5.0, 12.0, 29.0]
    assert len(apply_calls) == 5
    del apply_calls[:]
    g = parse_word(doc.group, "a1 a2")
    legal = growth_sequence(doc.automorphism, g, length, 5, rep=rep)
    assert apply_calls == []
    assert legal.values == growth_sequence(doc.automorphism, g, length, 5).values


def test_fast_path_guard_partial_report_matches_word_path(golden, apply_calls):
    length = tree_length_function(golden.graph)
    a = golden.group.free(0)
    with pytest.raises(ResourceLimitError) as word:
        growth_sequence(golden.automorphism, a, length, 40, guard=200)
    del apply_calls[:]
    with pytest.raises(ResourceLimitError) as fast:
        growth_sequence(golden.automorphism, a, length, 40, guard=200, rep=golden.representative)
    assert apply_calls == []
    assert fast.value.partial.to_record() == word.value.partial.to_record()


def test_relative_fast_path_reports_equal_word_path(apply_calls):
    # relative length is the translation length on the standard rose, the graph
    # of every fixture, so hyperbolic orbits on a train track iterate crossing counts
    rng = random.Random(83)
    fast_runs = 0
    for name in ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed"):
        doc = load_bundled(name)
        length = relative_length_function(doc.group)
        assert doc.representative.graph.marks_like(length.graph)
        for _ in range(200):
            g = random_hyperbolic(doc.group, rng, 6)
            k = rng.randint(1, 12)
            word = growth_report(doc.automorphism, g, length, k)
            del apply_calls[:]
            fast = growth_report(doc.automorphism, g, length, k, rep=doc.representative)
            assert fast.to_record() == word.to_record(), (name, repr(g), k)
            fast_runs += not apply_calls
    assert fast_runs >= 600  # 646 of 800 runs; the rest take the word path


def test_relative_fast_path_keeps_elliptic_elements_on_the_word_path(c2f2, c3c3, apply_calls):
    rng = random.Random(89)
    for doc in (c2f2, c3c3):
        G = doc.group
        length = relative_length_function(G)
        for i in range(len(G.factors)):
            for _ in range(5):
                g = G.factor_element(i, 1).conjugate(random_word(G, rng, 4))
                word = growth_report(doc.automorphism, g, length, 8)
                del apply_calls[:]
                fast = growth_report(doc.automorphism, g, length, 8, rep=doc.representative)
                assert len(apply_calls) == 8
                assert fast.to_record() == word.to_record()
                assert fast.values == [1.0] * 9


def test_relative_length_with_extended_generators_keeps_the_word_path(apply_calls):
    # with E = {a, b, ab}, "a b a b" has relative length 2 but tree length 4
    text = IDENTITY_DOC.replace("free = a b", "free = a b\nrelative-generators = a, b, a b")
    doc = load_text(text)
    length = relative_length_function(doc.group)
    assert length.graph is None
    g = parse_word(doc.group, "a b a b")
    del apply_calls[:]
    rpt = growth_sequence(doc.automorphism, g, length, 6, rep=doc.representative)
    assert len(apply_calls) == 6
    assert rpt.values == [2.0] * 7
    assert rpt.values == growth_sequence(doc.automorphism, g, length, 6).values


def test_relative_length_reads_generators_when_the_orbit_starts(apply_calls):
    # a length made before set_relative_generators must not keep the rose's fast path
    doc = load_bundled("golden_ratio_rose")  # a fresh group: the session fixture stays untouched
    G = doc.group
    length = relative_length_function(G)
    G.set_relative_generators([parse_word(G, w) for w in ("a", "b", "a b")])
    assert length.graph is None
    g = parse_word(G, "a b")
    word = growth_report(doc.automorphism, g, length, 3)
    del apply_calls[:]
    with_rep = growth_report(doc.automorphism, g, length, 3, rep=doc.representative)
    assert len(apply_calls) == 3
    assert with_rep.to_record() == word.to_record()
    assert word.values == [1.0, 2.0, 3.0, 5.0]  # on the rose: 2, 3, 5, 8


@pytest.mark.parametrize("letter", [0, 1])
def test_relative_fast_path_guard_partial_report_matches_word_path(golden, apply_calls, letter):
    length = relative_length_function(golden.group)
    g = golden.group.free(letter)
    with pytest.raises(ResourceLimitError) as word:
        growth_sequence(golden.automorphism, g, length, 40, guard=200)
    del apply_calls[:]
    with pytest.raises(ResourceLimitError) as fast:
        growth_sequence(golden.automorphism, g, length, 40, guard=200, rep=golden.representative)
    assert apply_calls == []
    assert "darts" in str(fast.value) and "syllables" in str(word.value)
    assert fast.value.partial.to_record() == word.value.partial.to_record()


def test_relative_orbits_run_without_rewriting_words(golden, c2f2, apply_calls):
    fib = [1, 2]
    while len(fib) < 28:
        fib.append(fib[-1] + fib[-2])
    del apply_calls[:]
    length = relative_length_function(golden.group)
    rpt = growth_sequence(golden.automorphism, golden.group.free(1), length, 27, rep=golden.representative)
    assert apply_calls == []
    assert rpt.values == [float(x) for x in fib]
    g = parse_word(c2f2.group, "P:1 a")
    length = relative_length_function(c2f2.group)
    rpt = growth_sequence(c2f2.automorphism, g, length, 25, rep=c2f2.representative)
    assert apply_calls == []
    assert rpt.values == [1.0 + x for x in [1] + fib[:25]]
    # loading and verifying the document rewrite a few words; the orbit adds none
    args = ["growth", "golden_ratio_rose", "--element", "b", "--length", "relative", "--format", "json"]
    setup = []
    for iterations in ("1", "27"):
        del apply_calls[:]
        result = CliRunner().invoke(main, [*args, "--iterations", iterations])
        assert result.exit_code == 0
        setup.append(len(apply_calls))
    assert setup[0] == setup[1]
    assert json.loads(result.output)["report"]["values"] == [float(x) for x in fib]


@pytest.mark.parametrize("guard", [0, -5])
def test_growth_sequence_rejects_a_guard_below_one(golden, guard):
    for length in (relative_length_function(golden.group), tree_length_function(golden.graph)):
        for rep in (None, golden.representative):
            with pytest.raises(InputError, match="guard"):
                growth_sequence(golden.automorphism, golden.group.free(0), length, 5, guard=guard, rep=rep)


def test_fast_path_length_leaving_the_float_range(golden):
    length = tree_length_function(golden.graph)
    with pytest.raises(ResourceLimitError) as err:
        growth_sequence(
            golden.automorphism, golden.group.free(1), length, 2000, guard=10**401, rep=golden.representative
        )
    partial = err.value.partial
    assert len(partial.values) == partial.iterations + 1 < 2001
    assert all(math.isfinite(v) for v in partial.values)
    assert partial.values[-1] > 1e307


# -- growth bound machinery ------------------------------------------------------------


def test_coefficient_single_stratum(golden):
    assert coefficient_matrix(golden.representative)[0, 0] == pytest.approx(GOLDEN, abs=1e-9)


def test_coefficient_polynomial(poly):
    rep = poly.representative
    assert coefficient_matrix(rep)[0, 1] == 1.0
    assert coefficient_matrix(rep)[1, 1] == 1.0
    assert coefficient_matrix(rep)[1, 0] == 0.0


def test_coefficient_disjoint_strata(c2f2):
    rep = c2f2.representative
    assert coefficient_matrix(rep)[0, 1] == 0.0
    assert coefficient_matrix(rep)[1, 0] == 0.0


def test_coefficient_diagonal_is_eigenvalue(golden, poly, c3c3, c2f2):
    for doc in (golden, poly, c3c3, c2f2):
        rep = doc.representative
        dec = rep.strata()
        for s in dec.strata:
            if s.growing:
                assert coefficient_matrix(rep)[s.index - 1, s.index - 1] == pytest.approx(
                    s.eigenvalue, rel=1e-9
                )


def test_bound_check_builds_the_pf_metric_once(monkeypatch, golden, poly, c3c3, c2f2):
    # coefficient_matrix reads the PF lengths off the strata, with the bits of the PF metric's lengths
    built = []
    with_lengths = MarkedMetricGraph.with_lengths
    monkeypatch.setattr(MarkedMetricGraph, "with_lengths", lambda *args: built.append(1) or with_lengths(*args))
    for doc in (golden, poly, c3c3, c2f2):
        rep = doc.representative
        dec = rep.strata()
        del built[:]
        A = coefficient_matrix(rep)
        assert built == []
        bound_check(rep, random_hyperbolic(doc.group, random.Random(5), 4), iterations=3)
        assert len(built) == 1
        expected = np.zeros_like(A)
        ratios = (dec.weight_matrix @ dec.matrix) / np.array(assign_pf_metric(rep).lengths)
        np.maximum.at(expected.T, np.array(dec.stratum_of) - 1, ratios.T)
        assert A.tobytes() == expected.tobytes()


def test_index_count_examples():
    assert index_count(2, 1, 2) == 3
    assert index_count(5, 3, 3) == 1
    assert index_count(3, 1, 3) == 10


def test_index_count_matches_enumeration():
    for m in range(1, 6):
        for r in range(1, m + 1):
            for k in range(1, 9):
                brute = sum(
                    1 for _ in itertools.combinations_with_replacement(range(r, m + 1), k)
                )
                assert index_count(k, r, m) == brute


def test_index_count_rejects_bad_arguments():
    with pytest.raises(InputError):
        index_count(0, 1, 2)
    with pytest.raises(InputError):
        index_count(2, 3, 2)


def test_index_total_polynomial_degree():
    # the bound polynomial has degree m-1: its m-th finite difference vanishes
    for m in range(1, 6):
        values = [sum(index_count(k, r, m) for r in range(1, m + 1)) for k in range(1, m + 3)]
        diffs = values
        for _ in range(m):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == 0 for d in diffs)


def test_bound_check_polynomial(poly):
    rpt = bound_check(poly.representative, poly.group.free(1), iterations=30)
    assert rpt.ok
    assert rpt.product_bound == 1.0
    for row in rpt.rows:
        k = row["k"]
        assert row["bound"] == pytest.approx((k + 2) * 1.0 * 1.0)
        assert row["observed"] == k + 1


def test_bound_check_golden(golden):
    rpt = bound_check(golden.representative, golden.group.free(0), iterations=20)
    assert rpt.ok
    # Binet-style: observed/bound stays bounded away from blowup
    ratios = [row["observed"] / row["bound"] for row in rpt.rows]
    assert max(ratios) <= 1.0


def test_bound_check_identity(f2):
    rep = identity_representative(f2)
    rpt = bound_check(rep, f2.free(0) * f2.free(1), iterations=10)
    assert rpt.ok


def test_bound_check_stratum_inequality_rows(poly):
    rpt = bound_check(poly.representative, poly.group.free(1), iterations=5)
    assert all(row["ok"] for row in rpt.stratum_rows)
    lhs = [row["lhs"] for row in rpt.stratum_rows]
    assert lhs == [1.0, 1.0]  # L_1(b alpha) = L_2(b alpha) = 1


def test_bound_check_rejects_elliptic(c3c3):
    with pytest.raises(InputError):
        bound_check(c3c3.representative, c3c3.group.factor_element(0, 1))


def reference_product_bound(A):
    """The double loop ``bound_check`` ran over the off-diagonal coefficients."""
    product_bound = 1.0
    for i in range(len(A)):
        for j in range(len(A)):
            if i != j:
                product_bound *= max(1.0, float(A[i, j]))
    return product_bound


def test_off_diagonal_product_matches_the_double_loop_bit_for_bit(golden, poly, c3c3, c2f2):
    for doc, element in [(golden, "b"), (poly, "b"), (c3c3, "P:1 Q:1"), (c2f2, "P:1 a")]:
        rpt = bound_check(doc.representative, parse_word(doc.group, element), iterations=3)
        assert rpt.product_bound.hex() == reference_product_bound(rpt.coefficients).hex()
    for text in (chord_text(100), tower_text(25)):
        A = coefficient_matrix(load_text(text).representative)
        assert off_diagonal_product(A).hex() == reference_product_bound(A).hex()
    rng = np.random.default_rng(17)
    for _ in range(2000):
        m = int(rng.integers(1, 9))
        A = np.triu(rng.random((m, m)) * rng.choice([0.5, 3.0, 1e5], size=(m, m)))
        A[rng.random((m, m)) < 0.1] = np.nan
        got = off_diagonal_product(A)
        assert type(got) is float and got.hex() == reference_product_bound(A).hex()


# -- the matrix layer against the per-edge loops it replaced --------------------------


LONG_GRID = [1.0 + 5 * i for i in range(200)]


def loop_image_ratio(rep, metric, m):
    return sum(metric.lengths[d >> 1] for d, _ in rep.edge_images[m].steps) / metric.lengths[m]


def loop_lipschitz(rep, metric):
    best, witness = None, -1
    for m in range(metric.n_edges):
        ratio = loop_image_ratio(rep, metric, m)
        if best is None or ratio > best:
            best, witness = ratio, m
    return best, witness


def loop_r_length(rep, path, r):
    weights = rep.strata().weight_matrix[r - 1].tolist()
    return sum(weights[d >> 1] for d, _ in path.steps)


def loop_coefficients(rep, metric):
    dec = rep.strata()
    A = np.zeros((dec.count, dec.count))
    for s in dec.strata:
        for e in s.edges:
            for r in range(1, dec.count + 1):
                val = loop_r_length(rep, rep.edge_images[e], r) / metric.lengths[e]
                A[r - 1, s.index - 1] = max(A[r - 1, s.index - 1], val)
    return A


GENERATED = {"chord5": lambda: load_text(chord_text(5)), "tower12": lambda: load_text(tower_text(12))}


@pytest.mark.parametrize(
    "name", ["golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed", *GENERATED]
)
def test_matrix_layer_matches_per_edge_loops(name):
    bundled = name not in GENERATED
    doc = load_bundled(name) if bundled else GENERATED[name]()
    rep = doc.representative
    close = dict(rel=1e-12, abs=0.0)
    for N, lip, witness in displacement_bracket(rep, LONG_GRID).lipschitz:
        metric = rescale_family(rep, N)
        ref, ref_witness = loop_lipschitz(rep, metric)
        assert lip == pytest.approx(ref, **close)
        assert loop_image_ratio(rep, metric, witness) == pytest.approx(ref, **close)
        # towers tie on every edge above the first; fixtures must keep their witness
        assert witness == ref_witness or not bundled
    for metric in (rep.graph, assign_pf_metric(rep), rescale_family(rep, 7.0)):
        lip, witness = lipschitz_constant(rep, metric)
        ref, ref_witness = loop_lipschitz(rep, metric)
        assert lip == pytest.approx(ref, **close)
        assert witness == ref_witness or not bundled
    pf = assign_pf_metric(rep)
    np.testing.assert_allclose(coefficient_matrix(rep), loop_coefficients(rep, pf), rtol=1e-12, atol=0)
    count = rep.strata().count
    for path in rep.edge_images:
        for r in range(1, count + 1):
            assert r_length(rep, path, r) == pytest.approx(loop_r_length(rep, path, r), **close)
    g = default_sample(doc)[0]
    A = loop_coefficients(rep, pf)
    core0, _ = cyclically_reduce(pf.loop_of_element(g))
    core1, _ = cyclically_reduce(pf.loop_of_element(doc.automorphism.apply(g)))
    for row in bound_check(rep, g, iterations=3).stratum_rows:
        r = row["stratum"]
        rhs = sum(A[r - 1, i - 1] * loop_r_length(rep, core0, i) for i in range(r, count + 1))
        assert row["lhs"] == pytest.approx(loop_r_length(rep, core1, r), **close)
        assert row["rhs"] == pytest.approx(rhs, **close)
