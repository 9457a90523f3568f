import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from outgrowth import (
    FACTOR,
    FREE,
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
    find_r_legal_hyperbolic,
    illegal_turn,
    is_r_legal,
    load_bundled,
    make_turn,
    r_length,
    reduce_path,
    standard_rose,
    tree_length_function,
    turn_columns,
    verify_representative,
    verify_rtt,
    verify_train_track,
    word_str,
)
from outgrowth import legality
from outgrowth.document import parse_path
from outgrowth.dynamics import _legal_loop_counts
from outgrowth.legality import (
    Turn,
    TurnEntry,
    _as_turns,
    _connecting_path_count,
    _directions,
    _rtt_injectivity,
    _turn_pairs,
    _turn_r_ok,
    loop_seam_turn,
    path_turns,
)

from conftest import PINCH_TEXTS, chord_text, load_text, random_word, tower_text
from test_graph_map import identity_representative

GOLDEN = (1 + 5**0.5) / 2

# dart numbering on the rank-2 rose: a=0, a'=1, b=2, b'=3
A, AI, B, BI = 0, 1, 2, 3


# -- turn enumeration ------------------------------------------------------------


def enumerate_turns(graph):
    """All turns of the graph, one per vertex-group orbit, sorted: the turn columns as turns."""
    directions = _directions(graph)
    return _as_turns(directions, *_turn_pairs(graph, {x: i for i, x in enumerate(directions)}))


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


# The enumeration the ordered one replaced: every pair of directions at a
# vertex normalised by make_turn, deduplicated in a set and sorted.  Kept as
# the reference for the turns and their order.
def reference_enumerate_turns(graph):
    turns = set()
    for v in range(graph.n_vertices):
        dirs = [(d, g) for d in graph.darts_at(v) for g in range(graph.vertex_order(v))]
        for i, d1 in enumerate(dirs):
            for d2 in dirs[i:]:
                turns.add(make_turn(graph, v, d1, d2))
    return sorted(turns)


def _assert_enumeration_matches_reference(graph):
    turns = enumerate_turns(graph)
    assert turns == reference_enumerate_turns(graph)
    assert all(type(t) is Turn for t in turns)


def test_enumerate_turns_matches_reference():
    reps = [*_reference_representatives(), *_large_representatives()]
    for rep in reps:
        _assert_enumeration_matches_reference(rep.graph)


def test_enumerating_an_ungrouped_rose_makes_no_make_turn_calls(monkeypatch, c2f2):
    calls = []
    normalise = legality.make_turn
    monkeypatch.setattr(legality, "make_turn", lambda *args: calls.append(args) or normalise(*args))
    assert len(enumerate_turns(load_text(chord_text(25)).graph)) == 25 * 51
    assert calls == []
    enumerate_turns(c2f2.graph)  # a grouped vertex still normalises its pairs
    assert calls


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


class ReferenceTable(LegalityTable):
    """A table that answers ``legal`` from its entries, not from the gates."""

    def legal(self, turn):
        return self.entries[turn].legal


# The orbit-walking classification the gate table replaced: it follows each
# turn's derivative orbit and records every turn met on the way.  Kept as the
# reference for legality and steps_to_degeneracy, and its table answers
# ``legal`` from what the walk found.
def reference_classify_turns(rep):
    table = ReferenceTable(rep)
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
        # the gates decide each turn the same, whatever order it is asked in
        gates = LegalityTable(rep)
        for turn, entry in rng.sample(reference, len(reference)):
            assert gates.legal(turn) == entry.legal


def _large_representatives():
    for n in (25, 50):
        yield load_text(chord_text(n)).representative
        yield load_text(tower_text(n)).representative


def test_meeting_times_match_reference_on_long_chains():
    # on a tower, Df walks a_i' down to a_1', so turns meet after up to n - 1 steps
    rng = random.Random(13)
    for n in (12, 25, 50):
        rep = load_text(tower_text(n)).representative
        reference = reference_classify_turns(rep).entries
        assert max(e.steps_to_degeneracy or 0 for e in reference.values()) == n - 1
        assert classify_turns(rep).entries == reference
        gates = LegalityTable(rep)
        for turn in rng.sample(list(reference), len(reference)):
            assert gates.legal(turn) == reference[turn].legal


def _assert_columns_match_reference(rep, rng):
    reference = reference_classify_turns(rep).entries
    cols = turn_columns(LegalityTable(rep))
    dirs = cols.directions
    decided = {
        Turn(v, (dirs[i], dirs[j])): (steps < 0, steps == 0, None if steps < 0 else steps)
        for v, i, j, steps in zip(cols.vertex.tolist(), cols.first.tolist(), cols.second.tolist(), cols.steps.tolist())
    }
    assert len(decided) == len(cols.steps)
    assert list(decided) == enumerate_turns(rep.graph)
    assert decided == {t: (e.legal, e.degenerate, e.steps_to_degeneracy) for t, e in reference.items()}
    # the gates decide each turn the same, one turn at a time, in any order
    gates = LegalityTable(rep)
    for turn in rng.sample(list(reference), len(reference)):
        assert gates.legal(turn) == reference[turn].legal


def test_turn_columns_match_reference():
    # towers chain Df through every stratum: meeting times up to n - 1, past several lift levels
    rng = random.Random(17)
    reps = [*_reference_representatives(), *_large_representatives()]
    reps += [load_text(chord_text(200)).representative, load_text(tower_text(200)).representative]
    for rep in reps:
        _assert_columns_match_reference(rep, rng)


def _legality_results(rep):
    """Everything turn legality decides: train track and RTT verdicts, r-legal words, fast-path choices."""
    words = {}
    for s in rep.strata().strata:
        if s.growing:
            try:
                words[s.index] = word_str(find_r_legal_hyperbolic(rep, s.index))
            except InputError as err:
                words[s.index] = str(err)
    length = tree_length_function(rep.graph)
    rng = random.Random(3)
    elements = [random_word(rep.graph.group, rng, 6) for _ in range(12)]
    return (
        verify_train_track(rep),
        verify_rtt(rep, path_bound=3),
        words,
        [_legal_loop_counts(rep, g, length) for g in elements],
    )


def _assert_gates_decide_as_the_reference(reps):
    """The gate table and the orbit-walking reference give every caller the same answers."""
    gates = [_legality_results(rep) for rep in reps]
    tables = {}

    def reference_legality(rep):
        if rep not in tables:
            tables[rep] = reference_classify_turns(rep)
        return tables[rep]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TopologicalRepresentative, "legality", reference_legality)
        assert [_legality_results(rep) for rep in reps] == gates
    assert len(tables) == len(reps)  # every representative was decided by the reference


def test_verify_rtt_witnesses_unchanged():
    from test_graph_map import _zero_stratum_representative

    _assert_gates_decide_as_the_reference([*_reference_representatives(), _zero_stratum_representative()])


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


def test_rtt_legality_witness_is_a_turn_of_the_stratum():
    # a -> a', b -> c, c -> a' b' c': the image of c turns at {a, b'} first,
    # but a is in stratum 1; the r-illegal turn is {b, c'} (Df b = Df c' = c)
    rep = _rose_map([[1], [4], [1, 3, 5]])
    assert rep.strata().stratum_of == (1, 2, 2)
    v = verify_rtt(rep)[1]
    assert not v.legality_ok
    assert v.legality_witness == make_turn(rep.graph, 0, (2, 0), (5, 0))
    assert not rep.legality().legal(v.legality_witness)


@pytest.mark.parametrize("bound", [-3, 0])
def test_rtt_rejects_a_path_bound_below_one(golden, bound):
    with pytest.raises(InputError, match=f"^the path bound must be at least 1, not {bound}$"):
        verify_rtt(golden.representative, path_bound=bound)


# The exhaustive injectivity search: it maps and tightens every candidate
# path from scratch, depth first, up to the bound and a path cap.  Kept as
# the reference for verdicts, path counts and least witness lengths.
def reference_rtt_injectivity(rep, dec, r, bound, max_paths):
    g = rep.graph
    if r <= 1:
        return None, 0
    lower_edges, endpoints = _connecting_ends(g, dec, r)
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


def _connecting_ends(g, dec, r):
    """The lower filtration's edges, and the vertices both it and stratum r touch."""
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
    return lower_edges, touches_high & touches_low


# The Dyck search that the pull-back through the inverse replaced.  It reads
# only the edge images, so it decides on maps that are not homotopy
# equivalences too, where the pull-back does not apply.  Kept as the
# reference for witnesses and their lengths.
def reference_shortest_collapsing_path(rep, lower_darts, endpoints):
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


def reference_dyck_injectivity(rep, dec, r, bound):
    """``_rtt_injectivity`` with its witness from the Dyck search: defined on any map."""
    g = rep.graph
    if r <= 1:
        return None, 0
    lower_edges, endpoints = _connecting_ends(g, dec, r)
    if not endpoints:
        return None, 0
    lower_darts = [d for m in sorted(lower_edges) for d in (2 * m, 2 * m + 1)]
    return (
        reference_shortest_collapsing_path(rep, lower_darts, endpoints),
        _connecting_path_count(g, lower_darts, endpoints, bound),
    )


def reference_verify_rtt(rep, path_bound=None):
    """``verify_rtt`` with injectivity decided by the Dyck search, on maps it does not verify too."""
    verdicts = verify_rtt(rep, path_bound)
    bound = path_bound or 2 * rep.graph.n_edges
    for v in verdicts:
        if v.growing:
            shortest, v.paths_checked = reference_dyck_injectivity(rep, rep.strata(), v.stratum, bound)
            v.injectivity_bound, v.injectivity_ok = bound, shortest is None or len(shortest) > bound
            v.injectivity_witness = None if v.injectivity_ok else shortest
    return verdicts


def _injectivity_outcome(rep, r, bound, max_paths=200_000):
    """The reference's (witness, paths checked), or its message when it hits its cap."""
    try:
        return reference_rtt_injectivity(rep, rep.strata(), r, bound, max_paths)
    except NonConvergenceError as err:
        return str(err)


def _assert_collapses(rep, path):
    image = reduce_path(rep.map_path(path))
    assert path.is_reduced() and image.steps == () and image.prefix == 0


def _assert_searches_agree(rep, bounds, max_paths=200_000, injectivity=_rtt_injectivity):
    """The shortest collapsing path, found by ``injectivity``, against the reference at every bound.

    Either finds a path up to the bound exactly when the other does; the
    shortest path is reduced, tightens to the trivial path and is as long
    as the least bound at which the reference finds one; with no path both
    count the same paths.  Where the reference gives up, more paths than its
    cap are counted.
    """
    dec = rep.strata()
    for s in dec.strata:
        if not s.growing:
            continue
        for bound in bounds:
            shortest, checked = injectivity(rep, dec, s.index, bound)
            expected = _injectivity_outcome(rep, s.index, bound, max_paths)
            if isinstance(expected, str):
                assert checked > max_paths, (s.index, bound)
                continue
            witness, count = expected
            found = shortest is not None and len(shortest) <= bound
            assert found == (witness is not None), (s.index, bound)
            if found:
                assert checked >= count
            else:
                assert checked == count, (s.index, bound)
        shortest, _ = injectivity(rep, dec, s.index, 1)
        if shortest is not None:
            _assert_collapses(rep, shortest)
            n = len(shortest)
            assert _injectivity_outcome(rep, s.index, n, max_paths)[0] is not None
            assert n == 1 or _injectivity_outcome(rep, s.index, n - 1, max_paths)[0] is None


def _c2f2_variant(c2f2, a, b, sP):
    """The c2f2_mixed graph and twist with other edge images (not always a homotopy equivalence)."""
    rep = c2f2.representative
    g = rep.graph
    images = [text if isinstance(text, GraphPath) else parse_path(g, text, g.base) for text in (a, b, sP)]
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
    # where the reference gives up at its cap, the search still decides
    for n in range(3, 7):
        _assert_searches_agree(load_text(tower_text(n)).representative, range(1, 9), max_paths=5_000)


def test_rtt_injectivity_matches_reference_through_vertex_groups(c2f2):
    # the lower filtration {a, sP} passes through vP with nontrivial P elements
    through = _c2f2_variant(c2f2, "a", "b sP P:1 sP' a", "sP")
    _assert_searches_agree(through, range(1, 9), injectivity=reference_dyck_injectivity)
    assert reference_dyck_injectivity(through, through.strata(), 3, 8) == (None, 193)
    assert _injectivity_outcome(through, 3, 8) == (None, 193)
    collapsing = _c2f2_variant(c2f2, "sP P:1 sP'", "b a", "sP")
    _assert_searches_agree(collapsing, range(1, 9), injectivity=reference_dyck_injectivity)


def test_rtt_injectivity_cap_matches_reference(c2f2):
    # the reference gives up at its cap; the search decides, with no collapsing path at all
    rep = c2f2.representative
    with pytest.raises(NonConvergenceError, match="injectivity search exceeded 1000 candidate paths"):
        reference_rtt_injectivity(rep, rep.strata(), 2, 10, 1000)
    assert _rtt_injectivity(rep, rep.strata(), 2, 10) == (None, 118_096)


def _squashed_tower():
    """Tower 3 with a2 -> a1: not a homotopy equivalence, and a1 a2' collapses."""
    tower = load_text(tower_text(3)).representative
    g = tower.graph
    images = [parse_path(g, text, g.base) for text in ("a1", "a1", "a3 a2")]
    return TopologicalRepresentative(g, tower.automorphism, tower.vertex_images, images)


def test_rtt_injectivity_finds_collapsing_paths(c2f2):
    squashed = _squashed_tower()
    g = squashed.graph
    witness, checked = reference_rtt_injectivity(squashed, squashed.strata(), 3, 6, 200_000)
    assert g.path_str(witness) == "a2' a2' a2' a1 a2 a2"
    assert checked == 36
    v3 = reference_verify_rtt(squashed, path_bound=6)[2]
    assert v3.stratum == 3 and v3.injectivity_ok is False
    assert g.path_str(v3.injectivity_witness) == "a1 a2'"
    assert v3.paths_checked == 4 * (1 + 3 + 9 + 27 + 81 + 243)  # every path up to the bound, as with none
    assert reference_verify_rtt(squashed, path_bound=1)[2].injectivity_ok is True

    collapsing = _c2f2_variant(c2f2, "sP P:1 sP'", "b a", "sP")
    witness, checked = reference_rtt_injectivity(collapsing, collapsing.strata(), 3, 8, 200_000)
    assert collapsing.graph.path_str(witness) == "sP P:1 sP' a'"
    assert checked == 2
    shortest, _ = reference_dyck_injectivity(collapsing, collapsing.strata(), 3, 8)
    assert collapsing.graph.path_str(shortest) == "a a"

    for rep, w in ((squashed, v3.injectivity_witness), (collapsing, shortest), (collapsing, witness)):
        _assert_collapses(rep, w)


def test_verify_rtt_leaves_injectivity_undecided_on_a_map_it_does_not_verify():
    squashed = _squashed_tower()
    assert verify_representative(squashed)
    verdicts = verify_rtt(squashed, path_bound=6)
    v3 = verdicts[2]
    assert v3.injectivity_ok is None and v3.ok is False
    assert (v3.injectivity_witness, v3.injectivity_bound, v3.paths_checked) == (None, None, None)
    assert v3.germs_ok is not None and v3.legality_ok is not None
    decided = [(v.germs_ok, v.germ_witness, v.legality_ok, v.legality_witness) for v in verdicts]
    assert decided == [(v.germs_ok, v.germ_witness, v.legality_ok, v.legality_witness)
                       for v in reference_verify_rtt(squashed, path_bound=6)]


def _witness_lengths(verdicts):
    return [replace(v, injectivity_witness=v.injectivity_witness and len(v.injectivity_witness)) for v in verdicts]


def _assert_pullback_matches_dyck(rep, bounds):
    """On a verified map, the pulled-back witnesses against the Dyck search's.

    The shortest collapsing paths are equally long, tighten to the trivial
    path and run from the smaller vertex, and at every bound ``verify_rtt``
    agrees with the Dyck search's verdicts up to the witnesses' direction.
    """
    assert verify_representative(rep) == []
    dec = rep.strata()
    for s in dec.strata:
        if s.growing:
            got, want = (search(rep, dec, s.index, 1)[0] for search in (_rtt_injectivity, reference_dyck_injectivity))
            assert (got is None) == (want is None), s.index
            if got is not None:
                assert len(got) == len(want) and got.start < got.end
                _assert_collapses(rep, got)
    for bound in bounds:
        assert _witness_lengths(verify_rtt(rep, bound)) == _witness_lengths(reference_verify_rtt(rep, bound))


def test_rtt_pullback_matches_the_dyck_search_on_verified_maps():
    from test_graph_map import _zero_stratum_representative

    for rep in [*_reference_representatives(), _zero_stratum_representative()]:
        _assert_pullback_matches_dyck(rep, [1, 2, 3, None])


def test_rtt_pullback_finds_the_collapsing_path_on_the_pinch_documents():
    # both maps send v1 to v0, and the one path from v0 to v1 that collapses stays in the lower filtration
    expected = {"pinch_f3": ("a' e", 2), "pinch_c2f2": ("sP P:1 sP' e", 3)}
    for name in expected:
        rep = load_text(PINCH_TEXTS[name]).representative
        _assert_pullback_matches_dyck(rep, [1, 2, 3, 4, None])
        witness, fails_from = expected[name]
        for bound in range(1, 5):
            v = verify_rtt(rep, bound)[2]
            assert v.injectivity_ok is (bound < fails_from), (name, bound)
        assert rep.graph.path_str(verify_rtt(rep, 4)[2].injectivity_witness) == witness


def test_rtt_pullback_drops_collapsing_paths_that_leave_the_lower_filtration():
    rep = load_text(PINCH_TEXTS["pinch_tree"]).representative
    g = rep.graph
    _assert_pullback_matches_dyck(rep, [1, 3, 8, None])
    assert [s.edges for s in rep.strata().strata] == [(0,), (1,), (2, 3)]
    assert all(v.injectivity_ok for v in verify_rtt(rep, 8) if v.growing)
    # v0, v1 and v2 all map to v0, and the collapsing paths between them cross h1 and h2 of stratum 3
    lower_edges, endpoints = _connecting_ends(g, rep.strata(), 3)
    assert endpoints == {0, 1, 2}
    for y in (1, 2):
        two_ends = legality._collapsing_path(rep, set(range(g.n_edges)), {0, y})
        _assert_collapses(rep, two_ends)
        assert {d >> 1 for d, _ in two_ends.steps} >= {2, 3}


def test_rtt_pullback_breaks_ties_by_the_least_pair():
    rep = load_text(PINCH_TEXTS["pinch_ties"]).representative
    g = rep.graph
    _assert_pullback_matches_dyck(rep, [1, 2, 3, None])
    assert g.path_str(verify_rtt(rep, 2)[3].injectivity_witness) == "a' e1"
    lower_edges = rep.strata().filtration(3)
    for ends, path in (({0, 2}, "a' e2"), ({1, 2}, "e1' e2")):
        assert g.path_str(legality._collapsing_path(rep, lower_edges, ends)) == path


_PINCH_DOCS = {name: load_text(PINCH_TEXTS[name]) for name in ("pinch_f3", "pinch_c2f2")}


def _pinch_variant(name, moves, target, letters):
    """A pinch document's graph and marking under another automorphism and image of e.

    The automorphism is the document's, then each move ``(i, y, left)``,
    which multiplies free generator i by the letter y on that side.  The
    image of e is the loop of ``letters`` followed by the tree path to
    ``target``, the image of v1.  The rest follows from the marking
    identity with an empty tether: the petal a maps to the loop of phi(a),
    x in {c, d}, marked ``x e'``, to the loop of phi(x) and then the image
    of e, and sP to itself.  So the map is verified when no image is empty.
    """
    doc = _PINCH_DOCS[name]
    g, G, auto = doc.graph, doc.graph.group, doc.representative.automorphism
    phi = list(auto.free_images)
    psi = list(auto.inverse.free_images)
    for i, letter, left in moves:
        x, y = G.free(i), G.word([letter])
        mu = [G.free(j) for j in range(G.free_rank)]
        mu_inv = list(mu)
        mu[i], mu_inv[i] = (y * x, y.inverse() * x) if left else (x * y, x * y.inverse())
        phi = [Automorphism(G, phi).apply(w) for w in mu]
        psi = [Automorphism(G, mu_inv).apply(w) for w in psi]
    auto = Automorphism(G, phi, inverse=Automorphism(G, psi))
    fe = reduce_path(g.loop_of_element(G.word(letters)) * g.marking_inverter().tree_path(target))
    images = []
    for m, edge in enumerate(g.edge_names):
        if edge == "e":
            images.append(fe)
        elif edge in ("c", "d"):
            images.append(reduce_path(g.loop_of_element(auto.apply(G.free(G.free_names.index(edge)))) * fe))
        elif edge == "a":
            images.append(g.loop_of_element(auto.apply(G.free(0))))
        else:
            images.append(doc.representative.edge_images[m])
    vertex_images = [0, target, *doc.representative.vertex_images[2:]]
    rep = doc.representative
    return TopologicalRepresentative(g, auto, vertex_images, images, vertex_isos=rep.vertex_isos)


@st.composite
def _pinch_maps(draw):
    name = draw(st.sampled_from(["pinch_f3", "pinch_c2f2"]))
    G = _PINCH_DOCS[name].graph.group
    free = [(FREE, j, sign) for j in range(G.free_rank) for sign in (1, -1)]
    factor = [(FACTOR, 0, 1)] if G.factors else []
    moves = []
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, G.free_rank - 1))
        y = draw(st.sampled_from([x for x in free if x[1] != i] + factor))
        moves.append((i, y, draw(st.booleans())))
    target = draw(st.integers(0, _PINCH_DOCS[name].graph.n_vertices - 1))
    letters = draw(st.lists(st.sampled_from(free + factor), max_size=3))
    return _pinch_variant(name, moves, target, letters)


@settings(max_examples=150, deadline=None)
@given(rep=_pinch_maps())
def test_rtt_pullback_matches_the_dyck_search_on_random_pinch_maps(rep):
    assume(all(p.steps for p in rep.edge_images))
    _assert_pullback_matches_dyck(rep, [1, 3])


@st.composite
def _c2f2_image(draw, end):
    """A reduced path from v0 to ``end`` on the c2f2_mixed graph, with P:0 or P:1 after each sP."""
    steps = []
    at = 0  # v0; vP is 1, and its only dart is sP' (5)
    for _ in range(draw(st.integers(1, 4))):
        darts = [5] if at else [0, 1, 2, 3, 4]
        if steps and steps[-1][1] == 0:
            darts = [d for d in darts if d != steps[-1][0] ^ 1]
        if not darts:  # sP P:0 cannot go on
            break
        d = draw(st.sampled_from(darts))
        steps.append((d, draw(st.integers(0, 1)) if d == 4 else 0))
        at = 1 if d == 4 else 0
    if at != end:
        if end == 0:
            if steps[-1] == (4, 0):
                steps[-1] = (4, 1)
            steps.append((5, 0))
        elif steps[-1] == (5, 0):
            steps.pop()
        else:
            steps.append((4, draw(st.integers(0, 1))))
    return tuple(steps)


@settings(max_examples=150, deadline=None)
@given(a=_c2f2_image(0), b=_c2f2_image(0), sP=_c2f2_image(1))
@example(a=((4, 1), (5, 0)), b=((2, 0), (0, 0)), sP=((4, 0),))  # a a collapses
def test_rtt_injectivity_matches_reference_on_random_maps_through_vertex_groups(c2f2, a, b, sP):
    g = c2f2.graph
    rep = _c2f2_variant(c2f2, *(GraphPath(g, 0, 0, steps) for steps in (a, b, sP)))
    _assert_searches_agree(rep, range(1, 7), injectivity=reference_dyck_injectivity)


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
    _assert_searches_agree(_rose_map(words), [bound], injectivity=reference_dyck_injectivity)


@settings(max_examples=200, deadline=None)
@given(words=_rose_words)
@example(words=[[1], [4], [1, 3, 5]])
def test_rtt_legality_witnesses_are_illegal_turns_of_their_stratum(words):
    rep = _rose_map(words)
    stratum_of = rep.strata().stratum_of
    for v in verify_rtt(rep, path_bound=1):
        if v.legality_witness is not None:
            assert not rep.legality().legal(v.legality_witness)
            assert [stratum_of[e] for e in v.legality_witness.edges()] == [v.stratum] * 2


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


@settings(max_examples=100, deadline=None)
@given(words=_rose_words, seed=st.integers(0, 2**16))
def test_enumeration_and_lazy_table_match_reference_on_random_rose_maps(words, seed):
    rep = _rose_map(words)
    _assert_enumeration_matches_reference(rep.graph)
    reference = list(reference_classify_turns(rep).entries.items())
    gates = LegalityTable(rep)
    for turn, entry in random.Random(seed).sample(reference, len(reference)):
        assert gates.legal(turn) == entry.legal


@settings(max_examples=100, deadline=None)
@given(words=_rose_words, seed=st.integers(0, 2**16))
def test_turn_columns_match_reference_on_random_rose_maps(words, seed):
    _assert_columns_match_reference(_rose_map(words), random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(words=_rose_words)
@example(words=[[1], [4], [1, 3, 5]])
def test_gates_decide_as_the_reference_on_random_rose_maps(words):
    _assert_gates_decide_as_the_reference([_rose_map(words)])


def test_illegal_turn_checks_the_seam_last_and_only_stratum_turns_with_r(golden):
    rep = golden.representative
    rose = golden.graph
    # b' a turns legally at {b, a}; its seam turns at {a', b'}, which Df joins in one gate
    loop = rose.path(0, [(BI, 0), (A, 0)])
    seam = make_turn(rose, 0, (AI, 0), (BI, 0))
    assert illegal_turn(rep, loop) is None
    assert illegal_turn(rep, loop, cyclic=True) == seam == loop_seam_turn(rose, loop)
    assert not is_r_legal(rep, loop, 1, cyclic=True)
    # a -> a', b -> c, c -> a' b' c': the image of c turns illegally at {a, b'} first, across strata
    rep = _rose_map([[1], [4], [1, 3, 5]])
    image = rep.edge_images[2]
    assert illegal_turn(rep, image) == make_turn(rep.graph, 0, (0, 0), (3, 0))
    assert illegal_turn(rep, image, 2) == make_turn(rep.graph, 0, (2, 0), (5, 0))
    assert illegal_turn(rep, image, 1) is None


def test_rtt_decides_past_the_old_path_cap(c2f2):
    rep = c2f2.representative
    with pytest.raises(NonConvergenceError, match="^injectivity search exceeded 200000 candidate paths$"):
        reference_rtt_injectivity(rep, rep.strata(), 2, 12, 200_000)
    verdicts = verify_rtt(rep, path_bound=12)
    assert [v.stratum for v in verdicts] == [1, 2] and all(v.ok for v in verdicts)
    assert verdicts[1].injectivity_ok and verdicts[1].injectivity_witness is None
    assert verdicts[1].paths_checked == 1_062_880 and verdicts[1].injectivity_bound == 12


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


# The two-phase search the cycle search replaced: it scans closed subpaths of
# iterated stratum-edge images, then falls back to a breadth-first search
# capped in loop length and node count.  Kept as the reference: whenever it
# finds a word, the exhaustive cycle search must find one too.
def reference_find_r_legal_hyperbolic(rep, r, iteration_cap=16, inverter=None, loop_bound=None):
    g = rep.graph
    dec = rep.strata()
    if not 1 <= r <= dec.count:
        raise InputError(f"no stratum {r}")
    stratum = dec.strata[r - 1]
    if not stratum.growing:
        raise InputError(f"stratum {r} is a zero stratum")
    inverter = inverter if inverter is not None else MarkingInverter(g)
    longest_legal = None

    for e in stratum.edges:
        path = GraphPath(g, g.dart_tail(2 * e), 0, ((2 * e, 0),))
        for _ in range(iteration_cap):
            path = reduce_path(rep.map_path(path))
            if longest_legal is None or len(path.steps) > len(longest_legal.steps):
                if illegal_turn(rep, path) is None:
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
                    loop = GraphPath(g, vertices[i], 0, tuple(steps))
                    word = _reference_accept_loop(rep, r, inverter, loop)
                    if word is not None:
                        return word

    word = _reference_legal_loop_search(rep, r, inverter, loop_bound)
    if word is not None:
        return word
    raise NonConvergenceError(
        f"no r-legal hyperbolic element found for stratum {r} within the caps",
        best=longest_legal,
    )


def _reference_accept_loop(rep, r, inverter, loop):
    (dn, en), d1 = loop.steps[-1], loop.steps[0][0]
    if dn ^ 1 == d1 and rep.graph.vertex_mul(loop.start, en, loop.prefix) == 0:
        return None
    if r_length(rep, loop, r) <= 0 or not is_r_legal(rep, loop, r, cyclic=True):
        return None
    word = inverter.element_of_loop_at(loop)
    return word if word.is_hyperbolic() else None


def _reference_legal_loop_search(rep, r, inverter, loop_bound, max_nodes=200_000):
    g = rep.graph
    dec = rep.strata()
    table = rep.legality()
    allowed = dec.filtration(r)
    bound = loop_bound if loop_bound is not None else 2 * g.n_edges + 2
    stratum_edges = set(dec.strata[r - 1].edges)
    frontier = []
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
                word = _reference_accept_loop(rep, r, inverter, p)
                if word is not None:
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


def _assert_r_legal_hyperbolic(rep, r, word):
    """The word's cyclically reduced loop lies in T_r, crosses stratum r, and turns r-legally."""
    g = rep.graph
    dec = rep.strata()
    assert word.is_hyperbolic()
    core, _ = cyclically_reduce(g.loop_of_element(word))
    edges = {d >> 1 for d, _ in core.steps}
    assert edges <= dec.filtration(r)
    assert any(dec.stratum_of[m] == r for m in edges)
    closed = core.steps + ((core.steps[0][0], g.vertex_mul(core.start, core.steps[-1][1], core.prefix)),)
    for (d, e), (d2, _) in zip(closed, closed[1:]):
        assert not (e == 0 and d2 == d ^ 1)
    assert is_r_legal(rep, core, r, cyclic=True)


def _assert_search_finds_what_the_reference_finds(rep, **caps):
    for s in rep.strata().strata:
        if not s.growing:
            continue
        try:
            expected = reference_find_r_legal_hyperbolic(rep, s.index, **caps)
        except NonConvergenceError:
            expected = None
        try:
            word = find_r_legal_hyperbolic(rep, s.index)
        except InputError:
            assert expected is None
            continue
        _assert_r_legal_hyperbolic(rep, s.index, word)


def test_r_legal_search_matches_reference():
    for rep in _reference_representatives():
        _assert_search_finds_what_the_reference_finds(rep)
    _assert_search_finds_what_the_reference_finds(load_text(chord_text(25)).representative)


@settings(max_examples=100, deadline=None)
@given(words=_rose_words)
def test_r_legal_search_matches_reference_on_random_rose_maps(words):
    _assert_search_finds_what_the_reference_finds(_rose_map(words), iteration_cap=4)


SKEW_MARKED_ROSE = """\
[presentation]
free = a b
[graph]
vertices = v0
base = v0
edge a = v0 v0 1.0
edge b = v0 v0 1.0
marking a = a
marking b = b a a a a a a a
[automorphism]
free a = a
free b = b
[inverse]
free a = a
free b = b
[map]
vertex v0 = v0
edge a = a
edge b = b
tether =
"""


def test_r_legal_search_inverts_a_skew_marking():
    # the loop b reads the element b a^-7, whose basis word is past the old inverter's depth-6 search
    rep = load_text(SKEW_MARKED_ROSE).representative
    assert verify_representative(rep) == []
    for r, expected in ((1, "a"), (2, "b a' a' a' a' a' a' a'")):
        word = find_r_legal_hyperbolic(rep, r)
        assert word_str(word) == expected
        _assert_r_legal_hyperbolic(rep, r, word)


def test_r_legal_search_proves_there_is_no_loop():
    # a -> b, b -> b b a': Df joins a, a', b and b' in one gate, so every turn
    # of stratum 1 = {a, b} is illegal and T_1 holds no r-legal loop
    rep = _rose_map([[2], [2, 2, 1], [5]])
    assert rep.strata().stratum_of == (1, 1, 2)
    with pytest.raises(InputError, match="^stratum 1 has no r-legal hyperbolic loop$"):
        find_r_legal_hyperbolic(rep, 1)
    with pytest.raises(NonConvergenceError):
        reference_find_r_legal_hyperbolic(rep, 1, iteration_cap=4)


def test_r_legal_paths_map_to_r_legal(golden, c2f2):
    for doc in (golden, c2f2):
        rep = doc.representative
        dec = rep.strata()
        top = dec.top_stratum
        for m in dec.strata[top - 1].edges:
            p = doc.graph.path(doc.graph.edge_ends[m][0], [(2 * m, 0)])
            for _ in range(4):
                p = reduce_path(rep.map_path(p))
                assert is_r_legal(rep, p, top)
