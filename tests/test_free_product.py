import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outgrowth import (
    FACTOR,
    FREE,
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    InputError,
    NonConvergenceError,
    is_hyperbolic,
    relative_conjugacy_length,
    relative_length,
)
from conftest import random_hyperbolic, random_letters, random_word


# -- finite group tables ------------------------------------------------------


def test_cyclic_tables_validate():
    for n in (1, 2, 3, 5, 8):
        tbl = FiniteGroupTable.cyclic(n)
        assert tbl.order == n
        assert tbl.mul(1 % n, n - 1) == 0


def test_broken_identity_rejected():
    with pytest.raises(InputError):
        FiniteGroupTable([[1, 0], [0, 1]])


def test_broken_inverse_rejected():
    # row of g=1 never hits 0
    with pytest.raises(InputError):
        FiniteGroupTable([[0, 1, 2], [1, 1, 1], [2, 1, 1]])


def test_broken_associativity_rejected():
    # commutative loop of order 5 that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(InputError):
        FiniteGroupTable(table)


# -- normal form ---------------------------------------------------------------


def test_normal_form_trivial_cases(mixed_group):
    G = mixed_group
    assert G.word([]) == G.identity()
    x = G.free(0)
    assert x * x.inverse() == G.identity()
    assert G.word([(FREE, 0, 1), (FREE, 0, -1)]) == G.identity()


def test_normal_form_factor_merge(mixed_group):
    G = mixed_group
    q1, q2 = G.factor_element(1, 1), G.factor_element(1, 2)
    assert (q1 * q1).syllables == ((FACTOR, 1, 2),)
    assert q1 * q2 == G.identity()


def test_normal_form_rejects_invalid_letters(mixed_group):
    G = mixed_group
    with pytest.raises(InputError):
        G.word([(FACTOR, 5, 1)])
    with pytest.raises(InputError):
        G.word([(FACTOR, 1, 9)])
    with pytest.raises(InputError):
        G.word([(FREE, 7, 1)])
    with pytest.raises(InputError):
        G.factor_element(0, 3)


def test_normal_form_idempotent_and_multiplicative(mixed_group):
    G = mixed_group
    rng = random.Random(7)
    for _ in range(200):
        u = random_word(G, rng, 20)
        v = random_word(G, rng, 20)
        assert G.word(u.syllables) == u
        assert G.word(u.syllables + v.syllables) == u * v


def _random_schedule_reduce(G, letters, rng):
    """Oracle: rewrite random reducible spots until none remain."""
    work = list(letters)
    while True:
        spots = []
        for p, (tag, x, y) in enumerate(work):
            if tag == FACTOR and y == 0:
                spots.append(("drop", p))
        for p in range(len(work) - 1):
            t1, x1, y1 = work[p]
            t2, x2, y2 = work[p + 1]
            if t1 == FACTOR and t2 == FACTOR and x1 == x2 and y1 != 0 and y2 != 0:
                spots.append(("merge", p))
            elif t1 == FREE and t2 == FREE and x1 == x2 and y1 == -y2:
                spots.append(("cancel", p))
        if not spots:
            return tuple(work)
        kind, p = rng.choice(spots)
        if kind == "drop":
            del work[p]
        elif kind == "cancel":
            del work[p : p + 2]
        else:
            tag, x, y1 = work[p]
            y2 = work[p + 1][2]
            prod = G.factors[x].mul(y1, y2)
            work[p : p + 2] = [] if prod == 0 else [(FACTOR, x, prod)]


def test_normal_form_confluent_under_random_schedules(mixed_group):
    G = mixed_group
    rng = random.Random(11)
    for _ in range(300):
        letters = random_letters(G, rng, 40)
        expected = G.word(letters).syllables
        assert _random_schedule_reduce(G, letters, rng) == expected


word_strategy = st.lists(
    st.one_of(
        st.tuples(st.just(FACTOR), st.just(0), st.integers(0, 1)),
        st.tuples(st.just(FACTOR), st.just(1), st.integers(0, 2)),
        st.tuples(st.just(FREE), st.integers(0, 1), st.sampled_from((1, -1))),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(data=word_strategy, extra=word_strategy)
def test_normal_form_properties_hypothesis(mixed_group, data, extra):
    G = mixed_group
    u, v = G.word(data), G.word(extra)
    # inverse laws and associativity of the reduced product
    assert u * u.inverse() == G.identity()
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert G.word(data + extra) == u * v


# -- lengths ------------------------------------------------------------------


def test_relative_length_examples(mixed_group):
    G = mixed_group
    assert relative_length(G.identity()) == 0
    p, q = G.factor_element(0, 1), G.factor_element(1, 1)
    assert relative_length(p * q) == 2
    x = G.free(0)
    w = x * p * x.inverse()
    assert relative_length(w) == 3
    assert relative_conjugacy_length(w) == 1


def test_conjugacy_length_examples(mixed_group):
    G = mixed_group
    p, x = G.factor_element(0, 1), G.free(0)
    w = p * x
    assert relative_conjugacy_length(w * w) == 4
    assert relative_conjugacy_length(w * w) == 2 * relative_conjugacy_length(w)
    assert relative_conjugacy_length(p) == 1


def test_hyperbolicity(mixed_group):
    G = mixed_group
    assert not is_hyperbolic(G.identity())
    assert is_hyperbolic(G.free(0))
    p = G.factor_element(0, 1)
    assert not is_hyperbolic(G.free(0) * p * G.free(0).inverse())
    assert is_hyperbolic(G.factor_element(0, 1) * G.factor_element(1, 1))


def test_conjugacy_invariance_random(mixed_group):
    G = mixed_group
    rng = random.Random(23)
    for _ in range(200):
        g = random_word(G, rng, 20)
        h = random_word(G, rng, 20)
        assert relative_conjugacy_length(g.conjugate(h)) == relative_conjugacy_length(g)


def test_homogeneity_random(mixed_group):
    G = mixed_group
    rng = random.Random(29)
    for _ in range(60):
        g = random_hyperbolic(G, rng, 12)
        base = relative_conjugacy_length(g)
        for n in range(1, 6):
            assert relative_conjugacy_length(g**n) == n * base
            assert relative_conjugacy_length(g ** (-n)) == n * base


def test_elliptic_bound(mixed_group):
    G = mixed_group
    rng = random.Random(31)
    for _ in range(100):
        g = random_word(G, rng, 16)
        if not g.is_hyperbolic():
            assert relative_conjugacy_length(g) <= 1


def test_cyclic_form_rotations_stay_reduced(mixed_group):
    G = mixed_group
    rng = random.Random(37)
    for _ in range(100):
        g = random_hyperbolic(G, rng, 14)
        core, conj = g.cyclic_form()
        assert conj * core * conj.inverse() == g
        syls = core.syllables
        for r in range(len(syls)):
            rotated = G.word(syls[r:] + syls[:r])
            assert rotated.cyclic_form() == (rotated, G.identity())


# -- extended relative generating sets -----------------------------------------


def test_extended_generators_bfs(f2):
    G = FreeProduct(free_rank=2, free_names=["a", "b"])
    a, b = G.free(0), G.free(1)
    G.set_relative_generators([a * b, b])
    # a = (ab) b^-1 takes two letters
    assert relative_length(a) == 2
    assert relative_length(a * b) == 1
    assert G.diagnostics() == []


def test_extended_generators_budget_exhaustion():
    G = FreeProduct(free_rank=1, free_names=["a"], search_budget=3)
    a = G.free(0)
    G.set_relative_generators([a])
    with pytest.raises(NonConvergenceError) as err:
        relative_length(a**7)
    assert err.value.best == 7


# -- automorphisms ----------------------------------------------------------------


def _golden_automorphism(G):
    a, b = G.free(0), G.free(1)
    inverse = Automorphism(G, [b * a.inverse(), a])
    return Automorphism(G, [b, a * b], inverse=inverse)


def test_apply_identity(f2):
    auto = Automorphism.identity(f2)
    auto.validate()
    rng = random.Random(41)
    for _ in range(20):
        g = random_word(f2, rng, 15)
        assert auto.apply(g) == g


def test_apply_golden_examples(f2):
    auto = _golden_automorphism(f2)
    auto.validate()
    a, b = f2.free(0), f2.free(1)
    assert auto.apply(a) == b
    assert auto.apply(a * b) == b * a * b


def test_apply_is_homomorphism(f2, mixed_group):
    rng = random.Random(43)
    auto = _golden_automorphism(f2)
    for _ in range(100):
        u, v = random_word(f2, rng, 15), random_word(f2, rng, 15)
        assert auto.apply(u * v) == auto.apply(u) * auto.apply(v)
        assert auto.apply(u.inverse()) == auto.apply(u).inverse()


def test_inverse_roundtrip_exact(f2):
    auto = _golden_automorphism(f2)
    rng = random.Random(47)
    for _ in range(100):
        g = random_word(f2, rng, 15)
        assert auto.inverse.apply(auto.apply(g)) == g
        assert auto.apply(auto.inverse.apply(g)) == g


def test_validate_rejects_wrong_inverse(f2):
    a, b = f2.free(0), f2.free(1)
    bad_inverse = Automorphism(f2, [a, b])
    auto = Automorphism(f2, [b, a * b], inverse=bad_inverse)
    with pytest.raises(InputError):
        auto.validate()


def test_validate_rejects_non_iso_table(mixed_group):
    G = mixed_group
    ident = [G.free(0), G.free(1)]
    bad = Automorphism(G, ident, permutation=[0, 1], isos=[(0, 1), (0, 2, 2)])
    bad.inverse = bad
    with pytest.raises(InputError):
        bad.validate()


def test_factor_automorphism_with_conjugator(mixed_group):
    G = mixed_group
    x, y = G.free(0), G.free(1)
    w1 = x * y.inverse()
    fwd = Automorphism(
        G,
        [y * x.inverse(), x],
        permutation=[0, 1],
        isos=[(0, 1), (0, 1, 2)],
        conjugators=[w1, G.identity()],
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
    back.validate()
    p = G.factor_element(0, 1)
    assert fwd.apply(p) == w1.inverse() * p * w1
