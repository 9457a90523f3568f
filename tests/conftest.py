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


def load_text(text: str):
    return parse_document(text, name="generated")
