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

from itertools import chain, repeat
from typing import Iterable, Sequence

from .errors import InputError, NonConvergenceError

FACTOR = 0
FREE = 1

Syllable = tuple[int, int, int]

_NO_TOP = (-1, -1, 0)  # the top of an empty normal form: no syllable has index -1

SEARCH_BUDGET = 12  # letters per word in the extended-generator word ball
SEARCH_CAP = 500_000  # elements the word ball may hold before the search gives up


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

    ``relative_generators`` is None for the free basis; with the default,
    relative lengths are exact syllable counts.  An extended generating set
    E, installed by ``set_relative_generators``, switches both relative
    lengths to one breadth-first word ball over the letters of E u Ghat,
    grown in place on first use (no lock) up to ``SEARCH_BUDGET`` letters and
    ``SEARCH_CAP`` elements.  The ball keeps the depth of each element and
    the least depth of each conjugacy class.
    """

    def __init__(
        self,
        factors: Sequence[FiniteGroupTable] = (),
        free_rank: int = 0,
        free_names: Sequence[str] | None = None,
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
        self._products = tuple(t.product for t in self.factors)
        # name -> index tables, built once for every word the documents parse
        self.free_index = {name: j for j, name in enumerate(self.free_names)}
        self.factor_index = {name: i for i, name in enumerate(self.factor_names)}
        # document token -> its syllables (none for an identity), for the tokens that
        # parse_word reads as valid letters: "1", "P:a" for a < order, "x" and "x'"
        self.tokens: dict[str, tuple[Syllable, ...]] = {"1": ()}
        for name, j in self.free_index.items():
            if ":" not in name:
                self.tokens[name + "'"] = ((FREE, j, -1),)
                if name != "1" and not name.endswith("'"):
                    self.tokens[name] = ((FREE, j, 1),)
        for name, i in self.factor_index.items():
            if ":" not in name:
                self.tokens[name + ":0"] = ()
                self.tokens.update(
                    (f"{name}:{a}", ((FACTOR, i, a),)) for a in range(1, self.factors[i].order)
                )
        self.relative_generators = None

    def set_relative_generators(self, words: Sequence[Word]) -> None:
        """Install an extended relative generating set (construction-time hook)."""
        words = tuple(words)
        for w in words:
            if w.group is not self:
                raise InputError("relative generator built for another presentation")
        self.relative_generators = words
        ghat = (self.factor_element(i, a) for i, t in enumerate(self.factors) for a in range(1, t.order))
        self._letters = tuple(dict.fromkeys((*words, *(w.inverse() for w in words), *ghat)))  # E u Ghat, once each
        # the word ball over them: element -> depth, class key -> least depth
        self._ball = {self.identity(): 0}
        self._classes = {(): 0}
        self._frontier = [self.identity()]
        self._depth = 0

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
        return Word(self, tuple(self._reduce([], self._checked(letters))))

    def parse_tokens(self, tokens: Iterable[str]) -> Word | None:
        """Normal form of document tokens, each looked up whole in ``self.tokens``; None if one is not there."""
        try:
            letters = list(map(self.tokens.__getitem__, tokens))
        except KeyError:
            return None
        return Word(self, tuple(self._reduce([], chain.from_iterable(letters))))

    def _checked(self, letters: Iterable[Syllable | Word]) -> Iterable[Syllable]:
        # the syllables of the words and the valid non-identity letters, in order
        for item in letters:
            if isinstance(item, Word):
                if item.group is not self:
                    raise InputError("word belongs to another presentation")
                yield from item.syllables
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
            yield tag, x, y

    def _reduce(self, out: list[Syllable], syllables: Iterable[Syllable]) -> list[Syllable]:
        """Push valid non-identity syllables onto the normal form ``out``, in one loop.

        A factor syllable meeting one of its own factor on top multiplies
        into it (and both vanish at the identity); a free letter meeting its
        inverse on top cancels it.  Every other syllable is appended.  The
        top syllable is kept unpacked in locals, and an empty stack has a
        top that matches no syllable.
        """
        products = self._products
        append, pop = out.append, out.pop
        ptag, px, py = out[-1] if out else _NO_TOP
        for syl in syllables:
            tag, x, y = syl
            if x == px and tag == ptag:
                if tag == FACTOR:
                    py = products[x][py][y]
                    if py:
                        out[-1] = (FACTOR, x, py)
                        continue
                    pop()
                elif y == py:
                    append(syl)
                    continue
                else:
                    pop()
                ptag, px, py = out[-1] if out else _NO_TOP
                continue
            append(syl)
            ptag, px, py = tag, x, y
        return out

    # -- cyclic cores and the word ball over an extended generating set ----

    def _cyclic_core(self, syllables: Sequence[Syllable]) -> tuple[Sequence[Syllable], list[Syllable]]:
        """(core, conjugator) syllables with w = conjugator * core * conjugator^-1.

        The core is cyclically reduced: its first and last syllables neither
        cancel nor share a factor.  Linear time via an index window; the
        core is a slice of ``syllables``, so a cyclically reduced tuple comes
        back as it is, uncopied.
        """
        lo, hi = 0, len(syllables)
        conj: list[Syllable] = []
        while hi - lo >= 2:
            t1, x1, y1 = syllables[lo]
            t2, x2, y2 = syllables[hi - 1]
            if t1 != t2 or x1 != x2 or (t1 == FREE and y1 != -y2):
                break
            hi -= 1
            if t1 == FREE:
                conj.append(syllables[lo])
                lo += 1
                continue
            # conjugating by the inverse of the last syllable rotates it onto the
            # front, where it merges; the syllable now last is of another factor
            conj.append((FACTOR, x1, self.factors[x1].inv(y2)))
            prod = self._products[x1][y2][y1]
            if prod:
                return [(FACTOR, x1, prod), *syllables[lo + 1 : hi]], conj
            lo += 1
        return syllables[lo:hi], conj

    def _class_key(self, syllables: Sequence[Syllable]) -> tuple[Syllable, ...]:
        """The least rotation of the cyclic core: on hyperbolic elements, equal exactly on conjugates.

        The cyclically reduced conjugates of a hyperbolic element are the
        rotations of one core (Magnus, Karrass and Solitar, *Combinatorial
        Group Theory*, 1966).  A rotation inside a run of free letters is a
        conjugate of the same length too, so rotating letter by letter keeps
        the key a class invariant.  An elliptic key has at most one syllable.
        """
        core, _ = self._cyclic_core(syllables)
        if not core:
            return ()
        least = min(core)
        return min(tuple(core[r:] + core[:r]) for r, syl in enumerate(core) if syl == least)

    def _depth_of(self, table: dict, key) -> int | None:
        """Depth of ``key`` in ``table``, the word ball or its class table, grown as needed.

        The ball over E u Ghat grows one depth at a time until ``key`` is in
        ``table``.  Each new element gets its depth and its class key the
        least depth seen.  None if ``key`` is not there within
        ``SEARCH_BUDGET`` depths and ``SEARCH_CAP`` elements.
        """
        ball, classes, letters = self._ball, self._classes, self._letters
        while key not in table and self._frontier and self._depth < SEARCH_BUDGET and len(ball) <= SEARCH_CAP:
            self._depth += 1
            depth, nxt = self._depth, []
            for w in self._frontier:
                for s in letters:
                    ws = w * s
                    if ws not in ball:
                        ball[ws] = depth
                        classes.setdefault(self._class_key(ws.syllables), depth)
                        nxt.append(ws)
            self._frontier = nxt
        return table.get(key)

    def _exceeded(self, syllables: Sequence[Syllable]) -> NonConvergenceError:
        """The ball's give-up error; its bound counts 1 per factor syllable and the depth of each free letter."""
        depths = [1 if tag == FACTOR else self._ball.get(self.free(x)) for tag, x, _ in syllables]
        return NonConvergenceError(
            f"relative length search exceeded {SEARCH_BUDGET} letters or {SEARCH_CAP} elements",
            best=None if None in depths else sum(depths),
        )


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
        return Word(self.group, tuple(self.group._reduce(list(self.syllables), other.syllables)))

    def __pow__(self, n: int) -> Word:
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.group, tuple(self.group._reduce([], chain.from_iterable(repeat(self.syllables, n)))))

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

    def is_hyperbolic(self) -> bool:
        """True unless the word is conjugate into a factor (or trivial)."""
        core, _ = self.group._cyclic_core(self.syllables)
        return len(core) >= 2 or (len(core) == 1 and core[0][0] == FREE)


# -- length functions ------------------------------------------------------


def relative_length(w: Word) -> int:
    """Length of a shortest word over E u Ghat representing w.

    With the default generating set this is the syllable count.  With an
    extended set it is the depth of w in the group's word ball; if the ball
    up to ``SEARCH_BUDGET`` letters and ``SEARCH_CAP`` elements misses w, the
    raised error carries the best upper bound assembled from per-letter
    distances.
    """
    G = w.group
    if G.relative_generators is None:
        return len(w.syllables)
    depth = G._depth_of(G._ball, w)
    if depth is None:
        raise G._exceeded(w.syllables)
    return depth


def relative_conjugacy_length(w: Word) -> int:
    """Minimal relative length over the conjugacy class of w.

    Elliptic words cost 0 (identity) or 1; hyperbolic words cost their
    core's syllable count with the default generating set, and with an
    extended set the least depth of their conjugacy class in the word ball.
    """
    G = w.group
    core, _ = G._cyclic_core(w.syllables)
    n = len(core)
    if n == 0:
        return 0
    if n == 1 and core[0][0] == FACTOR:
        return 1
    if G.relative_generators is None:
        return n
    depth = G._depth_of(G._classes, G._class_key(core))
    if depth is None:
        raise G._exceeded(core)
    return depth


# -- automorphisms ----------------------------------------------------------


class Automorphism:
    """An automorphism of G preserving the free factor system.

    Factor i maps into a conjugate of factor ``permutation[i]``: an element
    a goes to ``conjugators[i]^-1 * iso_i(a) * conjugators[i]``.  Free
    generators map to arbitrary words.  The inverse automorphism must be
    supplied; ``validate`` checks that composing this map after it fixes
    every free generator and every factor element exactly, which also
    proves the other composition (G is Hopfian, see ``validate``).
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

    def _generator_images(self) -> list[tuple[Syllable, tuple[Syllable, ...]]]:
        """(letter, image) for each free generator and each non-identity factor element."""
        G = self.group
        images = [((FREE, j, 1), self.free_images[j].syllables) for j in range(G.free_rank)]
        for i, tbl in enumerate(G.factors):
            target = self.permutation[i]
            w = self.conjugators[i]
            wi = w.inverse()
            for a in range(1, tbl.order):
                img = wi * G.factor_element(target, self.isos[i][a]) * w
                images.append(((FACTOR, i, a), img.syllables))
        return images

    def _image_table(self) -> dict[Syllable, tuple[Syllable, ...]]:
        if self._images is None:
            table = dict(self._generator_images())
            for j, img in enumerate(self.free_images):
                table[(FREE, j, -1)] = img.inverse().syllables
            self._images = table
        return self._images

    def apply(self, w: Word) -> Word:
        """Image of w, reduced to normal form (a right action: w -> w.alpha)."""
        if w.group is not self.group:
            raise InputError("word belongs to another presentation")
        G = self.group
        images = map(self._image_table().__getitem__, w.syllables)
        return Word(G, tuple(G._reduce([], chain.from_iterable(images))))

    def validate(self) -> None:
        """Raise InputError unless this is a genuine automorphism with exact inverse.

        The tables make this map an endomorphism phi of G.  The declared
        inverse psi is then checked on one composite: phi(psi(x)) = x for
        every free generator and every non-identity factor element x.  That
        decides what checking both composites decides.  The equalities put
        every generator in the image, so phi is onto.  G is finitely
        generated and residually finite, since free products of residually
        finite groups are (Gruenberg 1957), so G is Hopfian (Mal'cev 1940)
        and the onto endomorphism phi is bijective.  So psi(x) is
        phi^-1(x) on every letter psi substitutes, and psi(phi(w)) = w
        too.  A failure names the first generator, free generators first,
        at which phi(psi(x)) != x.
        """
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
        images = self._image_table()
        for x, image in self.inverse._generator_images():
            if G._reduce([], chain.from_iterable(map(images.__getitem__, image))) != [x]:
                tag, i, a = x
                if tag == FREE:
                    raise InputError(f"declared inverse fails on free generator {G.free_names[i]}")
                raise InputError(f"declared inverse fails on factor element {G.factor_names[i]}:{a}")

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
