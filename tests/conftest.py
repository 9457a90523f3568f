from __future__ import annotations

import random

import pytest

from outgrowth import FACTOR, FREE, FiniteGroupTable, FreeProduct, load_bundled, parse_document
from outgrowth.free_product import Word


@pytest.fixture(scope="session")
def golden():
    return load_bundled("golden_ratio_rose")


@pytest.fixture(scope="session")
def poly():
    return load_bundled("polynomial_rose")


@pytest.fixture(scope="session")
def c3c3():
    return load_bundled("c3c3_swap")


@pytest.fixture(scope="session")
def c2f2():
    return load_bundled("c2f2_mixed")


@pytest.fixture(scope="session")
def f2():
    return FreeProduct(free_rank=2, free_names=["a", "b"])


@pytest.fixture(scope="session")
def mixed_group():
    """C2 * C3 * F2, the workhorse for free-product length tests."""
    return FreeProduct(
        [FiniteGroupTable.cyclic(2, "P"), FiniteGroupTable.cyclic(3, "Q")],
        free_rank=2,
        free_names=["x", "y"],
    )


def random_letters(group: FreeProduct, rng: random.Random, max_len: int) -> list:
    """Raw (unreduced) letters over the presentation, identity letters allowed."""
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        if group.factors and (not group.free_rank or rng.random() < 0.5):
            i = rng.randrange(len(group.factors))
            letters.append((FACTOR, i, rng.randrange(group.factors[i].order)))
        else:
            letters.append((FREE, rng.randrange(group.free_rank), rng.choice((1, -1))))
    return letters


def random_word(group: FreeProduct, rng: random.Random, max_len: int) -> Word:
    return group.word(random_letters(group, rng, max_len))


def random_hyperbolic(group: FreeProduct, rng: random.Random, max_len: int) -> Word:
    while True:
        w = random_word(group, rng, max_len)
        if w.is_hyperbolic():
            return w


def _rose_document(images: list[list[str]], inverse: list[list[str]]) -> str:
    """Document text of a free-group automorphism on the rose with unit petals a1 .. an."""
    names = [f"a{i}" for i in range(1, len(images) + 1)]

    def rows(kind: str, words: list[list[str]]) -> list[str]:
        return [f"{kind} {a} = {' '.join(w)}" for a, w in zip(names, words)]

    lines = ["[presentation]", "free = " + " ".join(names), "[graph]", "vertices = v0", "base = v0"]
    lines += [f"edge {a} = v0 v0 1.0" for a in names] + [f"marking {a} = {a}" for a in names]
    lines += ["[automorphism]", *rows("free", images), "[inverse]", *rows("free", inverse)]
    lines += ["[map]", "vertex v0 = v0", *rows("edge", images), "tether ="]
    return "\n".join(lines) + "\n"


def tower_text(n: int) -> str:
    """The polynomial tower a1 -> a1, ai -> ai a(i-1): n one-edge strata, all eigenvalues 1.

    Its rescaled Lipschitz constants are (N + 1) / N on every N, for n >= 2.
    """
    images = [["a1"]] + [[f"a{i}", f"a{i - 1}"] for i in range(2, n + 1)]
    inverse = [["a1"]]  # ai -> ai inverse(a(i-1))^-1
    for i in range(2, n + 1):
        back = [x[:-1] if x.endswith("'") else x + "'" for x in reversed(inverse[-1])]
        inverse.append([f"a{i}"] + back)
    return _rose_document(images, inverse)


def chord_text(n: int) -> str:
    """The chord rose ai -> a(i+1), an -> a1 a2: one stratum, Perron root of x^n - x - 1."""
    images = [[f"a{i + 1}"] for i in range(1, n)] + [["a1", "a2"]]
    inverse = [[f"a{n}", "a1'"]] + [[f"a{i}"] for i in range(1, n)]
    return _rose_document(images, inverse)


# Verified maps that send other vertices to v0, so connecting paths between
# them can collapse.  pinch_f3 and pinch_c2f2 send v1 to v0, and one path
# from v0 to v1 in the lower filtration collapses: at --rtt-bound 2 in F3
# (a' e) and at 3 in C2 * F2, where the petal a becomes the spoke sP and e
# maps through P:1.  pinch_ties sends v1 and v2 to v0, and the three pairs
# of them have collapsing paths of two darts each: a' e1, a' e2 and e1' e2.
# pinch_tree, a non-identity map of the identity, sends
# v1 and v2 to v0; the lower filtration {l, t} keeps v0 apart from the
# tree edge t, so every collapsing connecting path leaves it.
PINCH_TEXTS = {
    "pinch_f3": """[presentation]
free = a c d
[graph]
vertices = v0 v1
base = v0
edge a = v0 v0 1.0
edge e = v0 v1 1.0
edge c = v0 v1 1.0
edge d = v0 v1 1.0
marking a = a
marking c = c e'
marking d = d e'
[automorphism]
free a = a
free c = d a'
free d = c d a'
[inverse]
free a = a
free c = d c'
free d = c a
[map]
vertex v0 = v0
vertex v1 = v0
edge a = a
edge e = a
edge c = d e'
edge d = c e' d e'
tether =
""",
    "pinch_c2f2": """[presentation]
free = c d
factors = P
[factor P]
cyclic = 2
[graph]
vertices = v0 v1 vP
base = v0
vertex vP = P
edge sP = v0 vP 0.5
edge e = v0 v1 1.0
edge c = v0 v1 1.0
edge d = v0 v1 1.0
marking c = c e'
marking d = d e'
marking P = sP
[automorphism]
free c = d P:1
free d = c d P:1
factor P = P : 0 1
[inverse]
free c = d c'
free d = c P:1
factor P = P : 0 1
[map]
vertex v0 = v0
vertex v1 = v0
vertex vP = vP
twist vP = 0 1
edge sP = sP
edge e = sP P:1 sP'
edge c = d e'
edge d = c e' d e'
tether =
""",
    "pinch_ties": """[presentation]
free = a c d
[graph]
vertices = v0 v1 v2
base = v0
edge a = v0 v0 1.0
edge e1 = v0 v1 1.0
edge e2 = v0 v2 1.0
edge c = v0 v1 1.0
edge d = v0 v2 1.0
marking a = a
marking c = c e1'
marking d = d e2'
[automorphism]
free a = a
free c = d a'
free d = c d a'
[inverse]
free a = a
free c = d c'
free d = c a
[map]
vertex v0 = v0
vertex v1 = v0
vertex v2 = v0
edge a = a
edge e1 = a
edge e2 = a
edge c = d e2'
edge d = c e1' d e2'
tether =
""",
    "pinch_tree": """[presentation]
free = x y
[graph]
vertices = v0 v1 v2
base = v0
edge l = v0 v0 1.0
edge t = v1 v2 1.0
edge h1 = v0 v1 1.0
edge h2 = v0 v2 1.0
marking x = l
marking y = h1 t h2'
[automorphism]
free x = x
free y = y
[inverse]
free x = x
free y = y
[map]
vertex v0 = v0
vertex v1 = v0
vertex v2 = v0
edge l = l
edge t = l
edge h1 = h1 t h2' h1 t h2'
edge h2 = h1 t h2' l
tether =
""",
}


def load_text(text: str):
    return parse_document(text, name="generated")
