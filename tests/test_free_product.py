import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from outgrowth import (
    FACTOR,
    FREE,
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    InputError,
    NonConvergenceError,
    relative_conjugacy_length,
    relative_length,
)
from conftest import random_hyperbolic, random_letters, random_word
from outgrowth import free_product
from outgrowth.document import parse_word
from outgrowth.free_product import Word


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


_LETTER = st.one_of(
    st.tuples(st.just(FACTOR), st.just(0), st.integers(0, 1)),
    st.tuples(st.just(FACTOR), st.just(1), st.integers(0, 2)),
    st.tuples(st.just(FREE), st.integers(0, 1), st.sampled_from((1, -1))),
)
word_strategy = st.lists(_LETTER, max_size=30)


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
    assert not G.identity().is_hyperbolic()
    assert G.free(0).is_hyperbolic()
    p = G.factor_element(0, 1)
    assert not (G.free(0) * p * G.free(0).inverse()).is_hyperbolic()
    assert (G.factor_element(0, 1) * G.factor_element(1, 1)).is_hyperbolic()


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


def test_cyclic_core_rotations_stay_reduced(mixed_group):
    G = mixed_group

    def cyclic_form(w):  # the former Word.cyclic_form
        core, conj = G._cyclic_core(w.syllables)
        return Word(G, tuple(core)), G.word(conj)

    rng = random.Random(37)
    for _ in range(100):
        g = random_hyperbolic(G, rng, 14)
        core, conj = cyclic_form(g)
        assert conj * core * conj.inverse() == g
        syls = core.syllables
        for r in range(len(syls)):
            rotated = G.word(syls[r:] + syls[:r])
            assert cyclic_form(rotated) == (rotated, G.identity())


def reference_cyclic_core(G, syllables):
    """``FreeProduct._cyclic_core`` on a list copy, merging in place (the former loop)."""
    syls = list(syllables)
    lo, hi = 0, len(syls)
    conj = []
    while hi - lo >= 2:
        t1, x1, y1 = syls[lo]
        t2, x2, y2 = syls[hi - 1]
        if t1 != t2 or x1 != x2 or (t1 == FREE and y1 != -y2):
            break
        hi -= 1
        if t1 == FREE:
            conj.append(syls[lo])
            lo += 1
            continue
        conj.append((FACTOR, x1, G.factors[x1].inv(y2)))
        prod = G._products[x1][y2][y1]
        if prod:
            syls[lo] = (FACTOR, x1, prod)
        else:
            lo += 1
    return syls[lo:hi], conj


def test_cyclic_core_matches_the_copying_loop_and_keeps_reduced_words(mixed_group):
    G = mixed_group
    rng = random.Random(41)
    for _ in range(2000):
        w = random_word(G, rng, 12)
        core, conj = G._cyclic_core(w.syllables)
        assert (list(core), conj) == reference_cyclic_core(G, w.syllables)
        if not conj:
            assert core is w.syllables


# -- extended relative generating sets -----------------------------------------


def test_extended_generators_bfs(f2):
    G = FreeProduct(free_rank=2, free_names=["a", "b"])
    a, b = G.free(0), G.free(1)
    G.set_relative_generators([a * b, b])
    # a = (ab) b^-1 takes two letters
    assert relative_length(a) == 2
    assert relative_length(a * b) == 1


def test_conjugacy_length_reaches_a_generator_conjugate_off_the_core():
    # C3 * F1 with E = {x, P:2 x P:2}: x P:1 is conjugate by P:1 to P:2 x P:2, a letter of E
    G = FreeProduct([FiniteGroupTable.cyclic(3, "P")], free_rank=1, free_names=["x"])
    x, p1, p2 = G.free(0), G.factor_element(0, 1), G.factor_element(0, 2)
    G.set_relative_generators([x, p2 * x * p2])
    assert (x * p1).conjugate(p1) == p2 * x * p2
    assert relative_length(p2 * x * p2) == 1
    assert relative_conjugacy_length(x * p1) == 1
    assert relative_conjugacy_length(p2 * x * p2) == 1


def test_extended_generators_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(free_product, "SEARCH_BUDGET", 3)
    G = FreeProduct(free_rank=1, free_names=["a"])
    a = G.free(0)
    G.set_relative_generators([a])
    with pytest.raises(NonConvergenceError) as err:
        relative_length(a**7)
    assert err.value.best == 7


def _short_elements(G, letters):
    """Every element that is a product of at most ``letters`` letters: free letters, their inverses, factor elements."""
    alphabet = [G.free(j, s) for j in range(G.free_rank) for s in (1, -1)]
    alphabet += [G.factor_element(i, a) for i, t in enumerate(G.factors) for a in range(1, t.order)]
    layer = seen = {G.identity()}
    for _ in range(letters):
        layer = {c * s for c in layer for s in alphabet} - seen
        seen = seen | layer
    return seen


@pytest.mark.parametrize("factors", [(), (FiniteGroupTable.cyclic(3, "P"),)], ids=["F2", "C3*F1"])
def test_conjugacy_length_is_the_class_minimum(monkeypatch, factors):
    # a smaller cap keeps each ball small; a word the search gives up on is skipped
    monkeypatch.setattr(free_product, "SEARCH_CAP", 2_000)
    G = FreeProduct(factors, free_rank=2 - len(factors), free_names=["a", "b"][: 2 - len(factors)])
    rng = random.Random(43)
    conjugators = _short_elements(G, 3)
    cases = []
    for _ in range(12):
        gens = [w for w in (random_word(G, rng, 3) for _ in range(rng.randint(1, 3))) if w]
        cases += [(gens, random_hyperbolic(G, rng, 4)) for _ in range(4)]
    if G.factors:  # a letter of E whose cyclic core, x P:1, has only rotations of length 2
        x, p2 = G.free(0), G.factor_element(0, 2)
        cases.append(([x, p2 * x * p2], p2 * x * p2))
    answered = 0
    for gens, w in cases:
        G.set_relative_generators(gens)
        try:
            n = relative_conjugacy_length(w)
        except NonConvergenceError:
            continue
        answered += 1
        reached = False
        for c in conjugators:
            u = w.conjugate(c)
            assert relative_conjugacy_length(u) == n
            try:
                length = relative_length(u)
            except NonConvergenceError:
                continue  # u lies past the ball, which already reaches depth n
            assert n <= length
            reached = reached or length == n
        assert reached, (gens, w, n)
    assert answered >= 10


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


# -- the one-composite inverse check against both composites -----------------------


def reference_validate(auto):
    """The former ``Automorphism.validate``: the tables, then both composites on every generator."""
    G = auto.group
    k = len(G.factors)
    if len(auto.free_images) != G.free_rank:
        raise InputError("one image required per free generator")
    if sorted(auto.permutation) != list(range(k)):
        raise InputError("factor permutation is not a permutation")
    for i, tbl in enumerate(G.factors):
        target = G.factors[auto.permutation[i]]
        iso = auto.isos[i]
        if tbl.order != target.order or len(iso) != tbl.order:
            raise InputError(f"factor {G.factor_names[i]}: iso table has wrong size")
        if sorted(iso) != list(range(tbl.order)) or iso[0] != 0:
            raise InputError(f"factor {G.factor_names[i]}: iso table is not a bijection")
        for a in range(tbl.order):
            for b in range(tbl.order):
                if iso[tbl.mul(a, b)] != target.mul(iso[a], iso[b]):
                    raise InputError(f"factor {G.factor_names[i]}: iso is not a homomorphism at ({a},{b})")
    if auto.inverse is None:
        raise InputError("automorphism requires its declared inverse")
    for j in range(G.free_rank):
        if not _both_composites_fix(auto, G.free(j)):
            raise InputError(f"declared inverse fails on free generator {G.free_names[j]}")
    for i, tbl in enumerate(G.factors):
        for a in range(1, tbl.order):
            if not _both_composites_fix(auto, G.factor_element(i, a)):
                raise InputError(f"declared inverse fails on factor element {G.factor_names[i]}:{a}")


def _both_composites_fix(auto, g):
    return reference_apply(auto.inverse, reference_apply(auto, g)) == g == reference_apply(
        auto, reference_apply(auto.inverse, g)
    )


def _compose(first, then):
    """The automorphism ``w -> then(first(w))`` of the right action, from the two tables."""
    G = first.group
    order = range(len(G.factors))
    return Automorphism(
        G,
        [then.apply(w) for w in first.free_images],
        [then.permutation[first.permutation[i]] for i in order],
        [tuple(then.isos[first.permutation[i]][a] for a in first.isos[i]) for i in order],
        [then.conjugators[first.permutation[i]] * then.apply(first.conjugators[i]) for i in order],
    )


def _elementary_moves(G):
    """Pairs (automorphism, its inverse) of C2 * C3 * F2 that generate a rich set of automorphisms."""
    x, y = G.free(0), G.free(1)
    p, q, q2 = G.factor_element(0, 1), G.factor_element(1, 1), G.factor_element(1, 2)
    one = G.identity()

    def auto(images, isos=((0, 1), (0, 1, 2)), conjugators=(one, one)):
        return Automorphism(G, images, [0, 1], isos, conjugators)

    return [
        (auto([x * y, y]), auto([x * y.inverse(), y])),
        (auto([y * x, y]), auto([y.inverse() * x, y])),
        (auto([x.inverse(), y]), auto([x.inverse(), y])),
        (auto([y, x]), auto([y, x])),
        (auto([x, y * p]), auto([x, y * p])),
        (auto([q * x, y]), auto([q2 * x, y])),
        (auto([x, y], conjugators=(x, one)), auto([x, y], conjugators=(x.inverse(), one))),
        (auto([x, y], conjugators=(one, p * y)), auto([x, y], conjugators=(one, y.inverse() * p))),
        (auto([x, y], isos=((0, 1), (0, 2, 1))), auto([x, y], isos=((0, 1), (0, 2, 1)))),
    ]


def _corrupt(G, inverse, kind, where, letter):
    """A copy of ``inverse`` with one fault: a letter flipped, images swapped, an iso entry or a conjugator altered."""
    images, isos, conjugators = list(inverse.free_images), [list(t) for t in inverse.isos], list(inverse.conjugators)
    if kind == "letter":
        j = where % 2
        syllables = list(images[j].syllables)
        if syllables and where % 3:
            syllables[where % len(syllables)] = letter
        else:
            syllables.insert(where % (len(syllables) + 1), letter)
        images[j] = G.word(syllables)
    elif kind == "swap":
        images.reverse()
    elif kind == "iso":
        i = where % 2
        a = 1 + where % (len(isos[i]) - 1)
        isos[i][a] = letter[2] % len(isos[i])
    else:
        i = where % 2
        conjugators[i] = conjugators[i] * G.word([letter]) if where % 3 else G.word([letter]) * conjugators[i]
    return Automorphism(G, images, inverse.permutation, isos, conjugators)


@settings(max_examples=400, deadline=None)
@given(
    moves=st.lists(st.integers(0, 8), min_size=1, max_size=6),
    kind=st.sampled_from(["none", "letter", "swap", "iso", "conjugator"]),
    where=st.integers(0, 60),
    letter=_LETTER,
)
def test_one_composite_inverse_check_agrees_with_both_composites(mixed_group, moves, kind, where, letter):
    G = mixed_group
    pairs = _elementary_moves(G)
    phi, psi = pairs[moves[0]]
    for m in moves[1:]:
        phi, psi = _compose(phi, pairs[m][0]), _compose(pairs[m][1], psi)
    if kind != "none":
        psi = _corrupt(G, psi, kind, where, letter)
    phi.inverse = psi
    try:
        reference_validate(phi)
        expected = None
    except InputError as err:
        expected = str(err)
    try:
        phi.validate()
        got = None
    except InputError as err:
        got = str(err)
    assert (got is None) == (expected is None), (got, expected)
    if kind == "none":
        assert got is None
    if got is not None:
        # the named generator may come after the first one at which either composite fails
        assert not _both_composites_fix(phi, parse_word(G, got.rsplit(" ", 1)[1]))
        event("same generator named" if got == expected else "a later generator named")


# -- the one-loop normal form against the per-syllable push -----------------------


def reference_push(G, out, syl):
    """Append one syllable, folding into the top of the stack (the former ``FreeProduct._push``)."""
    if out:
        tag, x, y = syl
        ptag, px, py = out[-1]
        if tag == FACTOR and ptag == FACTOR and x == px:
            prod = G.factors[x].mul(py, y)
            out.pop()
            if prod != 0:
                out.append((FACTOR, x, prod))
            return
        if tag == FREE and ptag == FREE and x == px and y == -py:
            out.pop()
            return
    out.append(syl)


def reference_word(G, letters):
    out = []
    for item in letters:
        for tag, x, y in item.syllables if isinstance(item, Word) else (item,):
            if (tag, y) != (FACTOR, 0):
                reference_push(G, out, (tag, x, y))
    return tuple(out)


def reference_mul(u, v):
    out = list(u.syllables)
    for syl in v.syllables:
        reference_push(u.group, out, syl)
    return Word(u.group, tuple(out))


def reference_pow(w, n):
    if n < 0:
        return reference_pow(w.inverse(), -n)
    result = w.group.identity()
    for _ in range(n):
        result = reference_mul(result, w)
    return result


def reference_apply(auto, w):
    G = auto.group
    table = {}
    for j, img in enumerate(auto.free_images):
        table[(FREE, j, 1)] = img.syllables
        table[(FREE, j, -1)] = img.inverse().syllables
    for i, tbl in enumerate(G.factors):
        c = auto.conjugators[i]
        for a in range(1, tbl.order):
            image = G.factor_element(auto.permutation[i], auto.isos[i][a])
            table[(FACTOR, i, a)] = reference_mul(reference_mul(c.inverse(), image), c).syllables
    out = []
    for syl in w.syllables:
        for img in table[syl]:
            reference_push(G, out, img)
    return Word(G, tuple(out))


def _inverse_letter(letter):
    tag, x, y = letter
    return (FACTOR, x, -y % (2, 3)[x]) if tag == FACTOR else (FREE, x, -y)


@st.composite
def _cancelling_letters(draw):
    # letters around a core followed by its inverse: a chain of cancellations down to the
    # core's ends, where C2 and C3 letters multiply to the identity on the way
    head, core, tail = (draw(st.lists(_LETTER, max_size=12)) for _ in range(3))
    inverse = [_inverse_letter(letter) for letter in reversed(core)]
    return head + core + draw(st.lists(_LETTER, max_size=2)) + inverse + tail


_LETTERS = word_strategy | _cancelling_letters()


@settings(max_examples=300, deadline=None)
@given(letters=_LETTERS, extra=_LETTERS, cut=st.integers(0, 30))
def test_normal_form_loop_matches_the_per_syllable_push(mixed_group, letters, extra, cut):
    G = mixed_group
    u, v = G.word(letters), G.word(extra)
    assert u.syllables == reference_word(G, letters)
    # words as items, split anywhere
    mixed = [G.word(letters[:cut]), *letters[cut:], v]
    assert G.word(mixed).syllables == reference_word(G, mixed)
    assert (u * v).syllables == reference_mul(u, v).syllables
    assert (u * u.inverse()).syllables == reference_mul(u, u.inverse()).syllables == ()


@settings(max_examples=150, deadline=None)
@given(letters=_LETTERS, n=st.integers(-4, 6))
def test_word_power_is_one_pass_and_matches_repeated_products(mixed_group, letters, n):
    w = mixed_group.word(letters)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Word, "__mul__", None)  # a power takes no intermediate products
        power = w**n
    assert power.syllables == reference_pow(w, n).syllables


@settings(max_examples=150, deadline=None)
@given(letters=_LETTERS, images=st.lists(_LETTERS, min_size=4, max_size=4), twist=st.booleans())
def test_apply_matches_the_per_syllable_push(mixed_group, letters, images, twist):
    G = mixed_group
    x_image, y_image, p_conjugator, q_conjugator = (G.word(image) for image in images)
    auto = Automorphism(
        G,
        [x_image, y_image],
        permutation=[0, 1],
        isos=[(0, 1), (0, 2, 1) if twist else (0, 1, 2)],
        conjugators=[p_conjugator, q_conjugator],
    )
    w = G.word(letters)
    assert auto.apply(w).syllables == reference_apply(auto, w).syllables
