import dataclasses
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
    LegalityTable,
    MarkingInverter,
    NonConvergenceError,
    TopologicalRepresentative,
    classify_turns,
    cyclically_reduce,
    derivative_turn,
    enumerate_turns,
    find_r_legal_hyperbolic,
    is_r_legal,
    load_bundled,
    make_turn,
    r_length,
    reduce_path,
    standard_rose,
    verify_representative,
    verify_rtt,
    verify_train_track,
)
from outgrowth.document import parse_path
from outgrowth.legality import (
    TurnEntry,
    _rtt_injectivity,
    _turn_r_ok,
    is_legal_path,
    loop_seam_turn,
    path_turns,
)

from conftest import chord_text, load_text, tower_text
from test_graph_map import identity_representative

GOLDEN = (1 + 5**0.5) / 2

# dart numbering on the rank-2 rose: a=0, a'=1, b=2, b'=3
A, AI, B, BI = 0, 1, 2, 3


# -- turn enumeration ------------------------------------------------------------


def test_enumerate_f2_rose(f2):
    rose = standard_rose(f2)
    turns = enumerate_turns(rose)
    assert len(turns) == 10
    assert sum(1 for t in turns if t.degenerate) == 4


def test_enumerate_single_petal():
    F1 = FreeProduct(free_rank=1, free_names=["a"])
    turns = enumerate_turns(standard_rose(F1))
    assert len(turns) == 3


def test_enumerate_grouped_vertex_twists(c2f2):
    graph = c2f2.graph
    grouped = [t for t in enumerate_turns(graph) if graph.vertex_factor[t.vertex] is not None]
    # one spoke end at the C2 vertex: a degenerate turn and one twisted turn
    assert len(grouped) == 2
    twisted = [t for t in grouped if not t.degenerate]
    assert len(twisted) == 1
    assert twisted[0].directions[1][1] == 1


def test_turn_normalisation_collapses_group_orbit(c3c3):
    graph = c3c3.graph
    v = 1  # the C3 vertex
    d = [d for d in graph.darts_at(v)][0]
    t1 = make_turn(graph, v, (d, 0), (d, 1))
    t2 = make_turn(graph, v, (d, 1), (d, 2))
    t3 = make_turn(graph, v, (d, 0), (d, 2))
    assert t1 == t2 == t3
    assert not t1.degenerate
    assert make_turn(graph, v, (d, 1), (d, 1)).degenerate


# -- derivatives --------------------------------------------------------------------


def test_derivative_identity_fixes_turns(f2):
    rep = identity_representative(f2)
    for t in enumerate_turns(rep.graph):
        assert derivative_turn(rep, t) == t


def test_derivative_golden_examples(golden):
    rep = golden.representative
    rose = golden.graph
    t = make_turn(rose, 0, (AI, 0), (BI, 0))
    image = derivative_turn(rep, t)
    assert image.degenerate
    assert image == make_turn(rose, 0, (BI, 0), (BI, 0))
    t2 = make_turn(rose, 0, (AI, 0), (B, 0))
    assert derivative_turn(rep, t2) == make_turn(rose, 0, (BI, 0), (A, 0))


def test_degenerate_maps_to_degenerate(golden, poly, c3c3, c2f2):
    for doc in (golden, poly, c3c3, c2f2):
        rep = doc.representative
        for t in enumerate_turns(doc.graph):
            if t.degenerate:
                assert derivative_turn(rep, t).degenerate


# -- classification -------------------------------------------------------------------


def test_classify_identity_all_legal(f2):
    rep = identity_representative(f2)
    table = classify_turns(rep)
    for entry in table:
        assert entry.legal == (not entry.turn.degenerate)


def test_classify_golden(golden):
    rep = golden.representative
    rose = golden.graph
    table = classify_turns(rep)
    illegal = table.entries[make_turn(rose, 0, (AI, 0), (BI, 0))]
    assert not illegal.legal
    assert illegal.steps_to_degeneracy == 1
    legal = table.entries[make_turn(rose, 0, (AI, 0), (B, 0))]
    assert legal.legal
    # the orbit cycles with period 2 through {b', a} and {b', b}
    assert derivative_turn(rep, derivative_turn(rep, derivative_turn(rep, legal.turn))) == derivative_turn(
        rep, legal.turn
    )


def test_classify_polynomial_hand_trace(poly):
    rep = poly.representative
    rose = poly.graph
    table = classify_turns(rep)
    t = make_turn(rose, 0, (AI, 0), (B, 0))
    # a -> a and b -> ba fix this turn, so its orbit never degenerates
    assert derivative_turn(rep, t) == t
    assert table.legal(t)
    # {b', a} maps to {a', a}, a fixed nondegenerate turn: legal as well
    t2 = make_turn(rose, 0, (BI, 0), (A, 0))
    assert derivative_turn(rep, t2) == make_turn(rose, 0, (AI, 0), (A, 0))
    assert table.legal(t2)


def test_legal_turns_have_legal_images(golden, poly, c3c3, c2f2):
    for doc in (golden, poly, c3c3, c2f2):
        rep = doc.representative
        table = classify_turns(rep)
        for entry in table:
            if entry.legal:
                assert table.legal(derivative_turn(rep, entry.turn))


# The orbit-walking classification the gate table replaced: it follows each
# turn's derivative orbit and records every turn met on the way.  Kept as the
# reference for legality and steps_to_degeneracy.
def reference_classify_turns(rep):
    table = LegalityTable(rep)
    for start in enumerate_turns(rep.graph):
        if start in table.entries:
            continue
        chain = []
        position = {}
        node = start
        while True:
            if node in table.entries:
                known = table.entries[node]
                for p, t in enumerate(chain):
                    steps = (
                        known.steps_to_degeneracy + (len(chain) - p)
                        if known.steps_to_degeneracy is not None
                        else None
                    )
                    table.entries[t] = TurnEntry(t, known.legal, t.degenerate, steps)
                break
            if node.degenerate:
                table.entries[node] = TurnEntry(node, False, True, 0)
                continue
            if node in position:
                for t in chain:
                    table.entries[t] = TurnEntry(t, True, False, None)
                break
            position[node] = len(chain)
            chain.append(node)
            node = derivative_turn(rep, node)
    return table


def _reference_representatives():
    for name in ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed"):
        yield load_bundled(name).representative
    for n in range(3, 11):
        yield load_text(chord_text(n)).representative
        yield load_text(tower_text(n)).representative


def test_classify_turns_matches_eager_reference():
    rng = random.Random(5)
    for rep in _reference_representatives():
        reference = list(reference_classify_turns(rep).entries.items())
        table = classify_turns(rep)
        assert table.entries == dict(reference)
        assert list(table.entries) == enumerate_turns(rep.graph)
        # a lazy table decides each turn the same, whatever order it is asked in
        lazy = LegalityTable(rep)
        for turn, entry in rng.sample(reference, len(reference)):
            assert lazy.entry(turn) == entry


def test_verify_rtt_witnesses_unchanged(monkeypatch):
    from test_graph_map import _zero_stratum_representative

    reps = [*_reference_representatives(), _zero_stratum_representative()]
    lazy = [verify_rtt(rep, path_bound=3) for rep in reps]
    monkeypatch.setattr(TopologicalRepresentative, "legality", reference_classify_turns)
    assert [verify_rtt(rep, path_bound=3) for rep in reps] == lazy


def test_edge_mapping_to_a_point_is_named():
    tower = load_text(tower_text(3)).representative
    g = tower.graph
    images = (g.trivial_path(0),) + tower.edge_images[1:]
    squashed = TopologicalRepresentative(g, tower.automorphism, tower.vertex_images, images)
    for check in (LegalityTable, classify_turns, verify_train_track, verify_rtt):
        with pytest.raises(InputError, match="^edge a1 maps to a point$"):
            check(squashed)


def test_representative_caches_its_lazy_table(golden):
    rep = golden.representative
    assert rep.legality() is rep.legality()
    assert verify_train_track(rep).ok
    assert 0 < len(rep.legality()) <= len(classify_turns(rep))


# -- legality of paths ------------------------------------------------------------------


def test_single_edge_always_r_legal(golden, poly):
    for doc in (golden, poly):
        rep = doc.representative
        for m in range(doc.graph.n_edges):
            p = doc.graph.path(doc.graph.edge_ends[m][0], [(2 * m, 0)])
            for r in range(1, rep.strata().count + 1):
                assert is_r_legal(rep, p, r)


def test_r_legal_lookup_golden(golden):
    rep = golden.representative
    rose = golden.graph
    good = rose.path(0, [(A, 0), (B, 0)])  # takes only the legal turn {a', b}
    assert is_r_legal(rep, good, 1)
    bad = rose.path(0, [(A, 0), (BI, 0)])  # takes the illegal turn {a', b'}
    assert not is_r_legal(rep, bad, 1)


# -- train track verification ---------------------------------------------------------


def test_train_track_golden_and_identity(golden, f2):
    assert verify_train_track(golden.representative).ok
    assert verify_train_track(identity_representative(f2)).ok


def test_train_track_failure_with_witness(f2):
    a, b = f2.free(0), f2.free(1)
    rose = standard_rose(f2)
    # a -> ab, b -> a^-1 forces the turn inside the image of a to die
    auto = Automorphism(
        f2, [a * b, a.inverse()], inverse=Automorphism(f2, [b.inverse(), b * a])
    )
    rep = TopologicalRepresentative(
        rose, auto, [0], [rose.path(0, [(A, 0), (B, 0)]), rose.path(0, [(AI, 0)])]
    )
    assert verify_representative(rep) == []
    verdict = verify_train_track(rep)
    assert not verdict.ok
    assert verdict.witness_edge == 0
    table = classify_turns(rep)
    assert not table.legal(verdict.witness_turn)


def test_iterated_images_stay_reduced_on_train_tracks(golden, c3c3, c2f2):
    for doc in (golden, c3c3, c2f2):
        rep = doc.representative
        assert verify_train_track(rep).ok
        for m in range(doc.graph.n_edges):
            p = doc.graph.path(doc.graph.edge_ends[m][0], [(2 * m, 0)])
            for _ in range(5):
                p = rep.map_path(p)
                assert p.is_reduced()


# -- relative train track verification ----------------------------------------------


def test_rtt_single_stratum_fixture(golden):
    verdicts = verify_rtt(golden.representative)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.ok and v.germs_ok and v.legality_ok and v.injectivity_ok
    assert v.paths_checked == 0  # no lower filtration to connect through


def test_rtt_polynomial_germ_failure(poly):
    verdicts = verify_rtt(poly.representative)
    assert verdicts[0].ok
    v2 = verdicts[1]
    assert not v2.germs_ok
    assert v2.germ_witness == 1  # edge b
    assert v2.legality_ok and v2.injectivity_ok
    assert not v2.ok


def test_rtt_bundled_passes_with_bound(c2f2):
    verdicts = verify_rtt(c2f2.representative, path_bound=8)
    assert all(v.ok for v in verdicts)
    spoke_stratum = [v for v in verdicts if v.stratum == 2][0]
    assert spoke_stratum.injectivity_bound == 8
    assert spoke_stratum.paths_checked > 0


def test_rtt_injectivity_counterexample():
    # collapse the hanging edge: paths through it in the lower stratum die
    from test_graph_map import _zero_stratum_representative

    rep = _zero_stratum_representative()
    # e is a zero stratum below the petals; the connecting path e' g e... does
    # not exist here, so instead check the verifier runs and reports bounds
    verdicts = verify_rtt(rep, path_bound=4)
    for v in verdicts:
        if v.growing:
            assert v.injectivity_ok


# The injectivity search the incremental one replaced: it maps and tightens
# every candidate path from scratch.  Kept as the reference for witnesses,
# path counts and the point where the cap raises.
def reference_rtt_injectivity(rep, dec, r, bound, max_paths):
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


def _injectivity_outcome(search, rep, r, bound, max_paths=200_000):
    """(witness, paths checked), or the message when the search hits its cap."""
    try:
        return search(rep, rep.strata(), r, bound, max_paths)
    except NonConvergenceError as err:
        return str(err)


def _assert_searches_agree(rep, bounds, max_paths=200_000):
    for s in rep.strata().strata:
        if not s.growing:
            continue
        for bound in bounds:
            expected = _injectivity_outcome(reference_rtt_injectivity, rep, s.index, bound, max_paths)
            got = _injectivity_outcome(_rtt_injectivity, rep, s.index, bound, max_paths)
            assert got == expected, (s.index, bound)


def _c2f2_variant(c2f2, a, b, sP):
    """The c2f2_mixed graph and twist with other edge images (not always a homotopy equivalence)."""
    rep = c2f2.representative
    g = rep.graph
    images = [parse_path(g, text, g.base) for text in (a, b, sP)]
    return TopologicalRepresentative(
        g, rep.automorphism, rep.vertex_images, images,
        vertex_isos=rep.vertex_isos, vertex_conjugators=rep.vertex_conjugators,
    )


def test_rtt_injectivity_matches_reference_on_fixtures(c2f2):
    for name in ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed"):
        rep = load_bundled(name).representative
        _assert_searches_agree(rep, [2 * rep.graph.n_edges, *range(1, 9)])
    _assert_searches_agree(c2f2.representative, range(9, 11))


def test_rtt_injectivity_matches_reference_on_towers():
    # the capped cases compare where, and with what message, both searches give up
    for n in range(3, 7):
        _assert_searches_agree(load_text(tower_text(n)).representative, range(1, 9), max_paths=5_000)


def test_rtt_injectivity_matches_reference_through_vertex_groups(c2f2):
    # the lower filtration {a, sP} passes through vP with nontrivial P elements
    through = _c2f2_variant(c2f2, "a", "b sP P:1 sP' a", "sP")
    _assert_searches_agree(through, range(1, 9))
    assert _injectivity_outcome(_rtt_injectivity, through, 3, 8) == (None, 193)
    collapsing = _c2f2_variant(c2f2, "sP P:1 sP'", "b a", "sP")
    _assert_searches_agree(collapsing, range(1, 9))


def test_rtt_injectivity_cap_matches_reference(c2f2):
    rep = c2f2.representative
    message = "injectivity search exceeded 1000 candidate paths"
    for search in (reference_rtt_injectivity, _rtt_injectivity):
        with pytest.raises(NonConvergenceError, match=message):
            search(rep, rep.strata(), 2, 10, 1000)


def test_rtt_injectivity_finds_collapsing_paths(c2f2):
    tower = load_text(tower_text(3)).representative
    g = tower.graph
    images = [parse_path(g, text, g.base) for text in ("a1", "a1", "a3 a2")]
    squashed = TopologicalRepresentative(g, tower.automorphism, tower.vertex_images, images)
    v3 = verify_rtt(squashed, path_bound=6)[2]
    assert v3.stratum == 3 and v3.injectivity_ok is False
    assert g.path_str(v3.injectivity_witness) == "a2' a2' a2' a1 a2 a2"
    assert v3.paths_checked == 36

    collapsing = _c2f2_variant(c2f2, "sP P:1 sP'", "b a", "sP")
    witness, checked = _rtt_injectivity(collapsing, collapsing.strata(), 3, 8, 200_000)
    assert collapsing.graph.path_str(witness) == "sP P:1 sP' a'"
    assert checked == 2

    for rep, w in ((squashed, v3.injectivity_witness), (collapsing, witness)):
        image = reduce_path(rep.map_path(w))
        assert image.steps == () and image.prefix == 0


_rose_words = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(
        lambda w: all(d != e ^ 1 for d, e in zip(w, w[1:]))
    ),
    min_size=3,
    max_size=3,
)


def _rose_map(words):
    """The rank-3 rose map sending each petal to a reduced word in the darts."""
    F3 = FreeProduct(free_rank=3, free_names=["a", "b", "c"])
    rose = standard_rose(F3)
    images = [rose.path(0, [(d, 0) for d in w]) for w in words]
    return TopologicalRepresentative(rose, Automorphism.identity(F3), [0], images)


@settings(max_examples=200, deadline=None)
@given(words=_rose_words, bound=st.integers(1, 5))
def test_rtt_injectivity_matches_reference_on_random_rose_maps(words, bound):
    _assert_searches_agree(_rose_map(words), [bound])


# verify_rtt no longer checks that the derivative keeps turns r-legal: a legal
# turn has a legal image, and a turn with an edge below stratum r maps to one,
# because images only descend.  These tests keep that condition.
def _assert_derivative_keeps_turns_r_legal(rep):
    dec = rep.strata()
    table = classify_turns(rep)
    for s in dec.strata:
        if not s.growing:
            continue
        lower = dec.filtration(s.index)
        for t in table.entries:
            if all(e in lower for e in t.edges()) and _turn_r_ok(table, dec.stratum_of, s.index, t):
                assert _turn_r_ok(table, dec.stratum_of, s.index, derivative_turn(rep, t)), (s.index, t)


def test_derivative_keeps_turns_r_legal(c2f2):
    reps = [
        *_reference_representatives(),
        _c2f2_variant(c2f2, "a", "b sP P:1 sP' a", "sP"),
        _c2f2_variant(c2f2, "sP P:1 sP'", "b a", "sP"),
    ]
    for rep in reps:
        _assert_derivative_keeps_turns_r_legal(rep)


@settings(max_examples=200, deadline=None)
@given(words=_rose_words)
def test_gates_keep_turns_r_legal_on_random_rose_maps(words):
    rep = _rose_map(words)
    assert classify_turns(rep).entries == reference_classify_turns(rep).entries
    _assert_derivative_keeps_turns_r_legal(rep)


def test_rtt_cap_carries_best_so_far(c2f2):
    rep = c2f2.representative
    with pytest.raises(NonConvergenceError, match="^injectivity search exceeded 200000 candidate paths$") as info:
        verify_rtt(rep, path_bound=12)
    decided, ran_out = info.value.best
    assert dataclasses.replace(decided, injectivity_bound=8) == verify_rtt(rep, path_bound=8)[0]
    assert ran_out.stratum == 2 and ran_out.growing
    assert ran_out.germs_ok and ran_out.legality_ok
    assert ran_out.injectivity_ok is None and ran_out.injectivity_witness is None
    assert ran_out.paths_checked == 200_000 and ran_out.injectivity_bound == 12
    assert not ran_out.ok


# -- r-legal hyperbolic elements -------------------------------------------------------


def test_find_r_legal_golden(golden):
    rep = golden.representative
    g = find_r_legal_hyperbolic(rep, 1)
    assert g.is_hyperbolic()
    metric = rep.graph
    dec = rep.strata()
    mu = dec.top_eigenvalue
    core0, _ = cyclically_reduce(metric.loop_of_element(g))
    base = r_length(rep, core0, 1)
    w = g
    for k in range(1, 9):
        w = rep.automorphism.apply(w)
        core, _ = cyclically_reduce(metric.loop_of_element(w))
        assert r_length(rep, core, 1) == pytest.approx(mu**k * base, rel=1e-6)


def test_find_r_legal_identity_rose(f2):
    rep = identity_representative(f2)
    g = find_r_legal_hyperbolic(rep, 1)
    assert g == f2.free(0)


def test_find_r_legal_polynomial(poly):
    rep = poly.representative
    assert find_r_legal_hyperbolic(rep, 1) == poly.group.free(0)
    g2 = find_r_legal_hyperbolic(rep, 2)
    assert g2 == poly.group.free(1)
    # stratum scaling: the stratum-2 weighted length stays constant since mu_2 = 1
    w = g2
    for _ in range(4):
        w = rep.automorphism.apply(w)
        core, _ = cyclically_reduce(poly.graph.loop_of_element(w))
        assert r_length(rep, core, 2) == 1.0


def test_find_r_legal_permutation_stratum(c3c3):
    rep = c3c3.representative
    g = find_r_legal_hyperbolic(rep, 1)
    assert g.is_hyperbolic()
    core, _ = cyclically_reduce(c3c3.graph.loop_of_element(g))
    assert r_length(rep, core, 1) > 0
    # the loop is r-legal, so its stratum length is preserved by the map
    w = rep.automorphism.apply(g)
    core1, _ = cyclically_reduce(c3c3.graph.loop_of_element(w))
    assert r_length(rep, core1, 1) == pytest.approx(r_length(rep, core, 1))


def test_find_r_legal_rejects_zero_stratum():
    from test_graph_map import _zero_stratum_representative

    rep = _zero_stratum_representative()
    dec = rep.strata()
    zero_index = [s.index for s in dec.strata if not s.growing][0]
    with pytest.raises(InputError):
        find_r_legal_hyperbolic(rep, zero_index)


def test_r_legal_paths_map_to_r_legal(golden, c2f2):
    for doc in (golden, c2f2):
        rep = doc.representative
        table = classify_turns(rep)
        dec = rep.strata()
        top = dec.top_stratum
        for m in dec.strata[top - 1].edges:
            p = doc.graph.path(doc.graph.edge_ends[m][0], [(2 * m, 0)])
            for _ in range(4):
                p = reduce_path(rep.map_path(p))
                assert is_r_legal(rep, p, top, table)
