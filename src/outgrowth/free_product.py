"""Words, normal forms, automorphisms and relative lengths in a free product.

A presentation describes a group G = G_1 * ... * G_k * F_r where every G_i
is a finite group given by its multiplication table and F_r is free of rank
r.  Elements are stored in normal form: an alternating sequence of
*syllables*, each either a nontrivial element of one factor or a single
free letter.  Because adjacent syllables from the same factor are always
multiplied out and inverse free letters always cancel, the normal form of
an element is unique, and with the free basis as relative generating set
the syllable count is exactly the relative word length over the alphabet
consisting of the free letters and all nontrivial factor elements.

Syllables are plain tuples so that very long words (the iteration guard
allows up to a million syllables) stay cheap:

    (FACTOR, i, a)   nontrivial element a of factor i
    (FREE, j, s)     free generator j with sign s = +1 or -1
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError, NonConvergenceError

FACTOR = 0
FREE = 1

Syllable = tuple[int, int, int]


class FiniteGroupTable:
    """A finite group as a multiplication table on {0, ..., order-1}.

    Index 0 is the identity.  The constructor checks the identity, inverse
    and associativity laws exhaustively; factor orders are expected to stay
    desk-sized.
    """

    def __init__(self, product: Sequence[Sequence[int]], name: str = "G"):
        self.name = name
        self.product = tuple(tuple(row) for row in product)
        self.order = len(self.product)
        if self.order == 0:
            raise InputError(f"factor {name}: empty multiplication table")
        inv: list[int | None] = [None] * self.order
        for a in range(self.order):
            row = self.product[a]
            if len(row) != self.order:
                raise InputError(f"factor {name}: table row {a} has wrong length")
            for b in range(self.order):
                if not 0 <= row[b] < self.order:
                    raise InputError(f"factor {name}: entry ({a},{b}) out of range")
                if row[b] == 0:
                    inv[a] = b
        if any(x is None for x in inv):
            raise InputError(f"factor {name}: some element has no inverse")
        self.inverse = tuple(inv)
        self.validate()

    @classmethod
    def cyclic(cls, n: int, name: str = "C") -> FiniteGroupTable:
        return cls([[(a + b) % n for b in range(n)] for a in range(n)], name=name)

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def validate(self) -> None:
        n = self.order
        for g in range(n):
            if self.product[0][g] != g or self.product[g][0] != g:
                raise InputError(f"factor {self.name}: identity law fails at {g}")
            if self.product[g][self.inverse[g]] != 0:
                raise InputError(f"factor {self.name}: inverse law fails at {g}")
        for a in range(n):
            for b in range(n):
                ab = self.product[a][b]
                for c in range(n):
                    if self.product[ab][c] != self.product[a][self.product[b][c]]:
                        raise InputError(
                            f"factor {self.name}: associativity fails at ({a},{b},{c})"
                        )

    def __repr__(self):
        return f"FiniteGroupTable({self.name}, order={self.order})"


class FreeProduct:
    """The group G = G_1 * ... * G_k * F_r with an optional relative generating set.

    ``relative_generators`` defaults to the free basis; with the default,
    relative lengths are exact syllable counts.  An extended generating set
    switches length computations to a bounded breadth-first search over
    products of letters (``search_budget`` letters, ``search_cap`` distinct
    elements).
    """

    def __init__(
        self,
        factors: Sequence[FiniteGroupTable] = (),
        free_rank: int = 0,
        free_names: Sequence[str] | None = None,
        relative_generators: Sequence[Word] | None = None,
        search_budget: int = 12,
        search_cap: int = 500_000,
    ):
        self.factors = tuple(factors)
        self.free_rank = int(free_rank)
        if self.free_rank < 0:
            raise InputError("free rank must be nonnegative")
        if free_names is None:
            free_names = tuple(f"x{j + 1}" for j in range(self.free_rank))
        if len(free_names) != self.free_rank:
            raise InputError("free_names length must equal free_rank")
        self.free_names = tuple(free_names)
        self.factor_names = tuple(t.name for t in self.factors)
        self.search_budget = search_budget
        self.search_cap = search_cap
        self._ball: dict[Word, int] | None = None
        self._frontier: list[Word] | None = None
        self._depth = 0
        self.relative_generators = None
        if relative_generators is not None:
            self.set_relative_generators(relative_generators)

    def set_relative_generators(self, words: Sequence[Word]) -> None:
        """Install an extended relative generating set (construction-time hook)."""
        words = tuple(words)
        for w in words:
            if w.group is not self:
                raise InputError("relative generator built for another presentation")
        self.relative_generators = words
        self._ball = None
        self._frontier = None
        self._depth = 0

    def diagnostics(self) -> list[str]:
        """Nonfatal warnings about the presentation (hyperbolicity, generation)."""
        notes = []
        k, r = len(self.factors), self.free_rank
        if k + r < 1:
            notes.append("trivial presentation: k + r = 0")
        if not (k >= 2 or (k >= 1 and r >= 1) or (k == 0 and r >= 1)):
            notes.append("no hyperbolic elements exist for this (k, r)")
        if self.relative_generators is not None:
            basis = {self.free(j) for j in range(r)}
            found = self._search_ball(basis)
            for j in range(r):
                if self.free(j) not in found:
                    notes.append(f"free letter {self.free_names[j]} not reached from E")
        return notes

    # -- element constructors ------------------------------------------

    def identity(self) -> Word:
        return Word(self, ())

    def free(self, j: int, sign: int = 1) -> Word:
        if not 0 <= j < self.free_rank:
            raise InputError(f"no free generator with index {j}")
        if sign not in (1, -1):
            raise InputError("free letter sign must be +1 or -1")
        return Word(self, ((FREE, j, sign),))

    def factor_element(self, i: int, a: int) -> Word:
        if not 0 <= i < len(self.factors):
            raise InputError(f"no factor with index {i}")
        if not 0 <= a < self.factors[i].order:
            raise InputError(f"factor {self.factor_names[i]} has no element {a}")
        if a == 0:
            return self.identity()
        return Word(self, ((FACTOR, i, a),))

    def word(self, letters: Iterable[Syllable | Word]) -> Word:
        """Normal form of a raw letter sequence (identity factor letters vanish).

        The result is the unique alternating reduced form, independent of
        how the input is split into letters or words.
        """
        out: list[Syllable] = []
        for item in letters:
            if isinstance(item, Word):
                if item.group is not self:
                    raise InputError("word belongs to another presentation")
                for syl in item.syllables:
                    self._push(out, syl)
                continue
            tag, x, y = item
            if tag == FACTOR:
                if not (0 <= x < len(self.factors) and 0 <= y < self.factors[x].order):
                    raise InputError(f"invalid factor letter ({x},{y})")
                if y == 0:
                    continue
            elif tag == FREE:
                if not (0 <= x < self.free_rank and y in (1, -1)):
                    raise InputError(f"invalid free letter ({x},{y})")
            else:
                raise InputError(f"unknown letter tag {tag}")
            self._push(out, (tag, x, y))
        return Word(self, tuple(out))

    def _push(self, out: list[Syllable], syl: Syllable) -> None:
        # Append one syllable, folding into the top of the stack when the
        # alternation or free-reduction invariant would be violated.
        if out:
            tag, x, y = syl
            ptag, px, py = out[-1]
            if tag == FACTOR and ptag == FACTOR and x == px:
                prod = self.factors[x].mul(py, y)
                out.pop()
                if prod != 0:
                    out.append((FACTOR, x, prod))
                return
            if tag == FREE and ptag == FREE and x == px and y == -py:
                out.pop()
                return
        out.append(syl)

    # -- bounded search over an extended generating set -------------------

    def generating_alphabet(self) -> list[Word]:
        """Letters of the alphabet E u Ghat: generators, inverses, factor elements."""
        letters: list[Word] = []
        gens = self.relative_generators
        if gens is None:
            gens = [self.free(j) for j in range(self.free_rank)]
        for w in gens:
            letters.append(w)
            wi = w.inverse()
            if wi != w:
                letters.append(wi)
        for i, table in enumerate(self.factors):
            for a in range(1, table.order):
                letters.append(self.factor_element(i, a))
        return letters

    def _search_ball(self, targets: set[Word]) -> dict[Word, int]:
        """Grow the E u Ghat word ball until all targets appear or budget runs out.

        The ball is cached across calls; returns the word -> shortest-length map.
        """
        if self._ball is None:
            self._ball = {self.identity(): 0}
            self._frontier = [self.identity()]
            self._depth = 0
        missing = {t for t in targets if t not in self._ball}
        letters = self.generating_alphabet()
        while missing and self._frontier and self._depth < self.search_budget:
            if len(self._ball) > self.search_cap:
                raise NonConvergenceError(
                    f"generating-set search exceeded {self.search_cap} elements"
                )
            self._depth += 1
            nxt = []
            for w in self._frontier:
                for s in letters:
                    ws = w * s
                    if ws not in self._ball:
                        self._ball[ws] = self._depth
                        nxt.append(ws)
                        missing.discard(ws)
            self._frontier = nxt
        return self._ball


class Word:
    """An element of a free product in normal form.

    Words are immutable and hashable; they compare equal only within a
    single presentation.  Multiplication, inversion and powers keep the
    normal-form invariants.
    """

    __slots__ = ("group", "syllables")

    def __init__(self, group: FreeProduct, syllables: tuple[Syllable, ...] = ()):
        self.group = group
        self.syllables = syllables

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.group is other.group
            and self.syllables == other.syllables
        )

    def __hash__(self):
        return hash(self.syllables)

    def __len__(self):
        return len(self.syllables)

    def __bool__(self):
        return bool(self.syllables)

    def __mul__(self, other: Word) -> Word:
        if other.group is not self.group:
            raise InputError("cannot multiply words from different presentations")
        out = list(self.syllables)
        push = self.group._push
        for syl in other.syllables:
            push(out, syl)
        return Word(self.group, tuple(out))

    def __pow__(self, n: int) -> Word:
        if n < 0:
            return self.inverse() ** (-n)
        result = self.group.identity()
        for _ in range(n):
            result = result * self
        return result

    def inverse(self) -> Word:
        G = self.group
        out = []
        for tag, x, y in reversed(self.syllables):
            if tag == FACTOR:
                out.append((FACTOR, x, G.factors[x].inv(y)))
            else:
                out.append((FREE, x, -y))
        return Word(G, tuple(out))

    def conjugate(self, h: Word) -> Word:
        """g^h = h^-1 g h."""
        return h.inverse() * self * h

    def __repr__(self):
        return f"<word {word_str(self)}>"

    # -- cyclic structure ------------------------------------------------

    def cyclic_form(self) -> tuple[Word, Word]:
        """Return (core, conjugator) with self = conjugator * core * conjugator^-1.

        The core is cyclically reduced: its first and last syllables neither
        cancel nor share a factor.  Linear time via an index window.
        """
        G = self.group
        syls = list(self.syllables)
        lo, hi = 0, len(syls)
        conj: list[Syllable] = []
        while hi - lo >= 2:
            t1, x1, y1 = syls[lo]
            t2, x2, y2 = syls[hi - 1]
            if t1 == FREE and t2 == FREE and x1 == x2 and y1 == -y2:
                conj.append(syls[lo])
                lo += 1
                hi -= 1
                continue
            if t1 == FACTOR and t2 == FACTOR and x1 == x2:
                prod = G.factors[x1].mul(y2, y1)
                # conjugating by the inverse of the last syllable rotates it
                # onto the front, where it merges
                conj.append((FACTOR, x1, G.factors[x1].inv(y2)))
                hi -= 1
                if prod != 0:
                    syls[lo] = (FACTOR, x1, prod)
                else:
                    lo += 1
                continue
            break
        return Word(G, tuple(syls[lo:hi])), G.word(conj)

    def is_hyperbolic(self) -> bool:
        """True unless the word is conjugate into a factor (or trivial)."""
        core, _ = self.cyclic_form()
        if len(core.syllables) >= 2:
            return True
        if len(core.syllables) == 1:
            return core.syllables[0][0] == FREE
        return False


# -- length functions ------------------------------------------------------


def relative_length(w: Word) -> int:
    """Length of a shortest word over E u Ghat representing w.

    With the default generating set this is the syllable count.  With an
    extended set it is found by breadth-first search over products of
    letters; if the ball up to the search budget misses w, the raised error
    carries the best upper bound assembled from per-letter distances.
    """
    G = w.group
    if G.relative_generators is None:
        return len(w.syllables)
    ball = G._search_ball({w})
    if w in ball:
        return ball[w]
    upper: int | None = 0
    for tag, x, _ in w.syllables:
        if tag == FACTOR:
            upper += 1
        else:
            d = ball.get(G.free(x))
            if d is None:
                upper = None
                break
            upper += d
    raise NonConvergenceError(
        f"relative length search budget ({G.search_budget}) exhausted", best=upper
    )


def relative_conjugacy_length(w: Word) -> int:
    """Minimal relative length over the conjugacy class of w.

    Elliptic words cost 0 (identity) or 1; hyperbolic words are measured on
    the cyclically reduced core, minimising over its rotations when an
    extended generating set is in force.
    """
    core, _ = w.cyclic_form()
    n = len(core.syllables)
    if n == 0:
        return 0
    if n == 1 and core.syllables[0][0] == FACTOR:
        return 1
    if w.group.relative_generators is None:
        return n
    syls = core.syllables
    return min(
        relative_length(Word(w.group, syls[r:] + syls[:r])) for r in range(len(syls))
    )


def is_hyperbolic(w: Word) -> bool:
    return w.is_hyperbolic()


# -- automorphisms ----------------------------------------------------------


class Automorphism:
    """An automorphism of G preserving the free factor system.

    Factor i maps into a conjugate of factor ``permutation[i]``: an element
    a goes to ``conjugators[i]^-1 * iso_i(a) * conjugators[i]``.  Free
    generators map to arbitrary words.  The inverse automorphism must be
    supplied; ``validate`` checks that both compositions fix every free
    generator and every factor element exactly.
    """

    def __init__(
        self,
        group: FreeProduct,
        free_images: Sequence[Word] = (),
        permutation: Sequence[int] | None = None,
        isos: Sequence[Sequence[int]] | None = None,
        conjugators: Sequence[Word] | None = None,
        inverse: Automorphism | None = None,
    ):
        self.group = group
        k = len(group.factors)
        self.free_images = tuple(free_images)
        self.permutation = tuple(permutation) if permutation is not None else tuple(range(k))
        self.isos = (
            tuple(tuple(t) for t in isos)
            if isos is not None
            else tuple(tuple(range(tbl.order)) for tbl in group.factors)
        )
        self.conjugators = (
            tuple(conjugators)
            if conjugators is not None
            else tuple(group.identity() for _ in range(k))
        )
        self.inverse = inverse
        self._images: dict[Syllable, tuple[Syllable, ...]] | None = None

    @classmethod
    def identity(cls, group: FreeProduct) -> Automorphism:
        auto = cls(group, tuple(group.free(j) for j in range(group.free_rank)))
        auto.inverse = auto
        return auto

    def _image_table(self) -> dict[Syllable, tuple[Syllable, ...]]:
        if self._images is None:
            G = self.group
            table: dict[Syllable, tuple[Syllable, ...]] = {}
            for j, img in enumerate(self.free_images):
                table[(FREE, j, 1)] = img.syllables
                table[(FREE, j, -1)] = img.inverse().syllables
            for i, tbl in enumerate(G.factors):
                target = self.permutation[i]
                w = self.conjugators[i]
                wi = w.inverse()
                for a in range(1, tbl.order):
                    img = wi * G.factor_element(target, self.isos[i][a]) * w
                    table[(FACTOR, i, a)] = img.syllables
            self._images = table
        return self._images

    def apply(self, w: Word) -> Word:
        """Image of w, reduced to normal form (a right action: w -> w.alpha)."""
        if w.group is not self.group:
            raise InputError("word belongs to another presentation")
        G = self.group
        table = self._image_table()
        out: list[Syllable] = []
        push = G._push
        for syl in w.syllables:
            for img in table[syl]:
                push(out, img)
        return Word(G, tuple(out))

    def __call__(self, w: Word) -> Word:
        return self.apply(w)

    def validate(self) -> None:
        """Raise InputError unless this is a genuine automorphism with exact inverse."""
        G = self.group
        k = len(G.factors)
        if len(self.free_images) != G.free_rank:
            raise InputError("one image required per free generator")
        if sorted(self.permutation) != list(range(k)):
            raise InputError("factor permutation is not a permutation")
        for i, tbl in enumerate(G.factors):
            target = G.factors[self.permutation[i]]
            iso = self.isos[i]
            if tbl.order != target.order or len(iso) != tbl.order:
                raise InputError(f"factor {G.factor_names[i]}: iso table has wrong size")
            if sorted(iso) != list(range(tbl.order)) or iso[0] != 0:
                raise InputError(f"factor {G.factor_names[i]}: iso table is not a bijection")
            for a in range(tbl.order):
                for b in range(tbl.order):
                    if iso[tbl.mul(a, b)] != target.mul(iso[a], iso[b]):
                        raise InputError(
                            f"factor {G.factor_names[i]}: iso is not a homomorphism at ({a},{b})"
                        )
        if self.inverse is None:
            raise InputError("automorphism requires its declared inverse")
        for j in range(G.free_rank):
            x = G.free(j)
            if self.inverse.apply(self.apply(x)) != x or self.apply(self.inverse.apply(x)) != x:
                raise InputError(f"declared inverse fails on free generator {G.free_names[j]}")
        for i, tbl in enumerate(G.factors):
            for a in range(1, tbl.order):
                g = G.factor_element(i, a)
                if self.inverse.apply(self.apply(g)) != g or self.apply(self.inverse.apply(g)) != g:
                    raise InputError(
                        f"declared inverse fails on factor element {G.factor_names[i]}:{a}"
                    )

    def __repr__(self):
        imgs = ", ".join(
            f"{self.group.free_names[j]}->{word_str(w)}" for j, w in enumerate(self.free_images)
        )
        return f"<automorphism {imgs or 'of factors'}>"


# -- display -----------------------------------------------------------------


def word_str(w: Word) -> str:
    """Human-readable form, e.g. ``a b' G1:2`` (the document syntax)."""
    if not w.syllables:
        return "1"
    parts = []
    for tag, x, y in w.syllables:
        if tag == FREE:
            name = w.group.free_names[x]
            parts.append(name if y == 1 else name + "'")
        else:
            parts.append(f"{w.group.factor_names[x]}:{y}")
    return " ".join(parts)
