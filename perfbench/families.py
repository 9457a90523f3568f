"""Generated input documents for the benchmark, and the closed forms they obey.

Two families of free-group automorphisms on the rose with n petals
``a1 .. an`` (all edge lengths 1, trivial tether):

* chord rose: ``a_i -> a_{i+1}`` for i < n and ``a_n -> a_1 a_2``.  One
  irreducible stratum whose Perron root is the root > 1 of
  ``x^n - x - 1``; n = 2 is the bundled ``golden_ratio_rose``.
* polynomial tower: ``a_1 -> a_1`` and ``a_i -> a_i a_{i-1}``.  n strata,
  one edge each, every eigenvalue 1; n = 2 is ``polynomial_rose``.

Both maps are positive, so positive words never cancel and orbit lengths
are ``1^T M^k c(w)`` in exact integers.  Nothing here imports ``outgrowth``:
the expected values are computed apart from the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _letter(i: int) -> str:
    return f"a{i}"


def _word(letters) -> str:
    return " ".join(letters) if letters else ""


def _rose_document(title: str, images: list[list[str]], inverse: list[list[str]]) -> str:
    n = len(images)
    names = [_letter(i) for i in range(1, n + 1)]
    lines = [f"# {title}", "[presentation]", "free = " + " ".join(names), "[graph]",
             "vertices = v0", "base = v0"]
    lines += [f"edge {a} = v0 v0 1.0" for a in names]
    lines += [f"marking {a} = {a}" for a in names]
    lines.append("[automorphism]")
    lines += [f"free {a} = {_word(img)}" for a, img in zip(names, images)]
    lines.append("[inverse]")
    lines += [f"free {a} = {_word(img)}" for a, img in zip(names, inverse)]
    lines += ["[map]", "vertex v0 = v0"]
    lines += [f"edge {a} = {_word(img)}" for a, img in zip(names, images)]
    lines.append("tether =")
    return "\n".join(lines) + "\n"


def chord_rose_images(n: int) -> list[list[str]]:
    """Positive images of the chord rose, index i-1 for letter a_i."""
    if n < 2:
        raise ValueError("chord roses need n >= 2")
    return [[_letter(i + 1)] for i in range(1, n)] + [[_letter(1), _letter(2)]]


def chord_rose(n: int) -> str:
    """Document text of the chord rose with n petals."""
    # inverse: a_{i+1} -> a_i, a_1 -> a_n a_1'
    inverse = [[_letter(n), _letter(1) + "'"]] + [[_letter(i)] for i in range(1, n)]
    return _rose_document(f"chord rose n={n}: a_i -> a_(i+1), a_n -> a_1 a_2",
                          chord_rose_images(n), inverse)


def tower_images(n: int) -> list[list[str]]:
    if n < 1:
        raise ValueError("towers need n >= 1")
    return [[_letter(1)]] + [[_letter(i), _letter(i - 1)] for i in range(2, n + 1)]


def tower(n: int) -> str:
    """Document text of the polynomial tower with n petals."""
    # inverse beta(a_i) = a_i beta(a_{i-1})^-1, built up from beta(a_1) = a_1
    inverse: list[list[str]] = [[_letter(1)]]
    for i in range(2, n + 1):
        prev = inverse[-1]
        inv_prev = [x[:-1] if x.endswith("'") else x + "'" for x in reversed(prev)]
        inverse.append([_letter(i)] + inv_prev)
    return _rose_document(f"polynomial tower n={n}: a_1 -> a_1, a_i -> a_i a_(i-1)",
                          tower_images(n), inverse)


def random_positive_word(rng: random.Random, counts: list[int]) -> list[str]:
    """A seeded shuffle of the positive letters with the given multiplicities.

    The letter counts are fixed, so every seed gives orbits of exactly the
    same lengths (and the same work) while the words themselves differ.
    """
    letters = [_letter(i + 1) for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(letters)
    return letters


# -- closed forms ------------------------------------------------------------------


def orbit_counts(images: list[list[str]], word: list[str], iterations: int) -> list[list[int]]:
    """Letter counts ``M^k c(w)`` of the orbit for k = 0..iterations, in exact integers."""
    n = len(images)
    index = {_letter(i + 1): i for i in range(n)}
    cols = [[0] * n for _ in range(n)]  # cols[j][i]: count of a_i in image of a_j
    for j, img in enumerate(images):
        for x in img:
            cols[j][index[x]] += 1
    c = [0] * n
    for x in word:
        c[index[x]] += 1
    out = [c]
    for _ in range(iterations):
        nxt = [0] * n
        for j, cj in enumerate(c):
            if cj:
                for i, m in enumerate(cols[j]):
                    if m:
                        nxt[i] += m * cj
        c = nxt
        out.append(c)
    return out


def orbit_lengths(images: list[list[str]], word: list[str], iterations: int) -> list[int]:
    """``1^T M^k c(w)`` for k = 0..iterations: the orbit's word lengths."""
    return [sum(c) for c in orbit_counts(images, word, iterations)]


def chord_weights(n: int) -> list[float]:
    """Perron row eigenvector of the chord rose, largest entry 1: ``mu^(i-n)`` on a_i."""
    mu = chord_root(n)
    return [mu ** (i - n) for i in range(1, n + 1)]


def chord_root(n: int) -> float:
    """The root > 1 of x^n - x - 1, by bisection in exact rationals."""
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid**n - mid - 1 > 0:
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a
