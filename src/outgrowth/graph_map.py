"""Simplicial self-maps of marked graphs and their stratified transition matrices.

A topological representative stores, on the quotient graph, everything a
straight map of trees carries: a vertex image for every vertex, an
isomorphism-with-conjugator for every vertex group, a reduced edge path for
every edge (linear on edges, so the map is straight by construction), and a
tether path recording where the base point goes.  The representative is
*verified* against its automorphism through the exact marking identity

    tether . f(marking(s)) . tether^-1  ==  marking(s . alpha)

for every generator s, using literal equality of reduced paths.

The transition matrix counts unoriented edge crossings of the images.  One
boolean reachability closure of it gives the strata: its symmetric part
joins the edges of each strongly connected block, and the rest orders the
blocks so that images only descend (sinks first, ties to the smallest
edge).  The turn calculus reads the strata alone; growth and displacement
read their certified Perron-Frobenius data, found on first use:
eigenvector entries become edge lengths, the largest block eigenvalue is
the spectral growth rate, and per-stratum weighted lengths feed the growth
bounds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonConvergenceError
from .free_product import Automorphism, Word, word_str
from .graph_of_groups import (
    GraphPath,
    MarkedMetricGraph,
    Violation,
    crossing_counts,
    join_path,
    reduce_path,
    validate_graph,
)


class TopologicalRepresentative:
    """A simplicial map of the marked graph realising an automorphism."""

    def __init__(
        self,
        graph: MarkedMetricGraph,
        automorphism: Automorphism,
        vertex_images: list[int] | tuple[int, ...],
        edge_images: list[GraphPath] | tuple[GraphPath, ...],
        tether: GraphPath | None = None,
        vertex_isos: dict[int, tuple[int, ...]] | None = None,
        vertex_conjugators: dict[int, int] | None = None,
    ):
        self.graph = graph
        self.automorphism = automorphism
        self.vertex_images = tuple(vertex_images)
        self.edge_images = tuple(edge_images)
        self.tether = tether if tether is not None else graph.trivial_path(graph.base)
        self.vertex_isos = dict(vertex_isos or {})
        self.vertex_conjugators = dict(vertex_conjugators or {})
        self._odd_images: dict[int, GraphPath] = {}
        self._strata: StrataDecomposition | None = None
        self._legality = None
        self._violations: list[Violation] | None = None

    # -- the map ----------------------------------------------------------

    def image_element(self, v: int, g: int) -> int:
        """Effective vertex twist: conjugated isomorphism image of g in G_{f(v)}."""
        if g == 0:
            return 0
        iso = self.vertex_isos.get(v)
        if iso is None:
            raise InputError(f"no vertex twist declared at {self.graph.vertex_names[v]}")
        img = iso[g]
        c = self.vertex_conjugators.get(v, 0)
        if c:
            tbl = self.graph.vertex_table(self.vertex_images[v])
            img = tbl.mul(tbl.inv(c), tbl.mul(img, c))
        return img

    def image_dart(self, d: int) -> GraphPath:
        if d & 1 == 0:
            return self.edge_images[d >> 1]
        cached = self._odd_images.get(d)
        if cached is None:
            cached = self.edge_images[d >> 1].inverse()
            self._odd_images[d] = cached
        return cached

    def map_path(self, p: GraphPath) -> GraphPath:
        """Image path (not reduced): darts to their image paths, elements twisted."""
        g = self.graph

        def segments():
            yield self.image_element(p.start, p.prefix), ()
            for d, e in p.steps:
                img = self.image_dart(d)
                yield img.prefix, img.steps
                if e:
                    yield self.image_element(g.dart_head(d), e), ()

        return join_path(g, self.vertex_images[p.start], segments())

    # -- strata -------------------------------------------------------------

    def stratification(self) -> StrataDecomposition:
        """The strata without Perron data (cached): what turns, RTT checks and Lipschitz constants read."""
        if self._strata is None:
            self.graph.require_edges()
            self._strata = stratify(transition_matrix(self))
        return self._strata

    def strata(self) -> StrataDecomposition:
        """``stratification`` with certified eigenvalues and eigenvector weights, found on first call."""
        dec = self.stratification()
        return dec if dec.weight_matrix is not None else attach_eigendata(dec)

    def legality(self):
        """The gates of the derivative on directions (cached).

        Returns a ``legality.LegalityTable``, whose ``legal`` is a lookup of
        two directions' gates; ``legality.classify_turns`` times every turn
        at once on it.
        """
        if self._legality is None:
            from .legality import LegalityTable  # the turn calculus builds on this module

            self._legality = LegalityTable(self)
        return self._legality


def verify_representative(rep: TopologicalRepresentative) -> list[Violation]:
    """All structural invariants plus the exact marking identity per generator.

    The checks run once per representative, as its strata and gates are
    found once, so the map and its graph's marking are taken as fixed; each
    call returns a fresh list.
    """
    if rep._violations is None:
        rep._violations = _representative_violations(rep)
    return list(rep._violations)


def _representative_violations(rep: TopologicalRepresentative) -> list[Violation]:
    g = rep.graph
    G = g.group
    out = list(validate_graph(g))
    if any(v.code == "bad edge" for v in out):
        return out  # the edge checks below index vertices by edge ends
    try:
        rep.automorphism.validate()
    except InputError as err:
        out.append(Violation("automorphism", str(err)))
        return out
    if len(rep.vertex_images) != g.n_vertices:
        out.append(Violation("vertex images", "one image required per vertex"))
        return out
    if any(not 0 <= v < g.n_vertices for v in rep.vertex_images):
        out.append(Violation("vertex images", "image vertex out of range"))
        return out
    sigma = rep.automorphism.permutation
    for v in range(g.n_vertices):
        i = g.vertex_factor[v]
        if i is None:
            continue
        target = g.vertex_factor[rep.vertex_images[v]]
        if target != sigma[i]:
            out.append(
                Violation(
                    "vertex twist",
                    f"vertex {g.vertex_names[v]} carries factor {G.factor_names[i]} but its "
                    f"image does not carry factor {G.factor_names[sigma[i]]}",
                )
            )
            continue
        iso = rep.vertex_isos.get(v)
        tbl = g.vertex_table(v)
        if iso is None or len(iso) != tbl.order or sorted(iso) != list(range(tbl.order)):
            out.append(Violation("vertex twist", f"missing or non-bijective twist at {g.vertex_names[v]}"))
            continue
        target_tbl = g.vertex_table(rep.vertex_images[v])
        if any(
            iso[tbl.mul(a, b)] != target_tbl.mul(iso[a], iso[b])
            for a in range(tbl.order)
            for b in range(tbl.order)
        ):
            out.append(
                Violation("vertex twist", f"twist at {g.vertex_names[v]} is not a homomorphism")
            )
        c = rep.vertex_conjugators.get(v, 0)
        if not 0 <= c < g.vertex_order(rep.vertex_images[v]):
            out.append(Violation("vertex twist", f"conjugator at {g.vertex_names[v]} out of range"))
    if len(rep.edge_images) != g.n_edges:
        out.append(Violation("edge images", "one image path required per geometric edge"))
        return out
    for m, path in enumerate(rep.edge_images):
        name = g.edge_names[m]
        t, h = g.edge_ends[m]
        if not path.steps:
            out.append(Violation("edge images", f"edge {name} maps to a point"))
            continue
        if path.start != rep.vertex_images[t] or path.end != rep.vertex_images[h]:
            out.append(Violation("edge images", f"image of {name} joins the wrong vertices"))
        if not path.is_endpoint_consistent():
            out.append(Violation("edge images", f"image of {name} is not a path"))
        elif not path.is_reduced():
            out.append(Violation("edge images", f"image of {name} is not reduced"))
    tether = rep.tether
    if tether.start != g.base or tether.end != rep.vertex_images[g.base]:
        out.append(Violation("tether", "tether must join the base to the image of the base"))
    if out:
        return out
    # marking identity, checked on every generator of G
    generators: list[Word] = [G.free(j) for j in range(G.free_rank)]
    for i in range(len(G.factors)):
        generators += [G.factor_element(i, a) for a in range(1, G.factors[i].order)]
    tether_inv = tether.inverse()
    for s in generators:
        lhs = reduce_path(tether * rep.map_path(g.loop_of_element(s)) * tether_inv)
        rhs = g.loop_of_element(rep.automorphism.apply(s))
        if lhs != rhs:
            out.append(
                Violation(
                    "marking mismatch",
                    f"marking identity fails at generator {word_str(s)}: "
                    f"{g.path_str(lhs)} != {g.path_str(rhs)}",
                )
            )
    return out


# -- transition matrix and strata ---------------------------------------------


def transition_matrix(rep: TopologicalRepresentative) -> np.ndarray:
    """Unoriented crossing counts: entry (i, j) counts edge i in the image of edge j.

    One ``bincount`` over the darts of all edge images, each keyed by its
    edge and the column of the image it lies in.
    """
    n = rep.graph.n_edges
    lengths = [len(path.steps) for path in rep.edge_images]
    darts = np.fromiter(
        (d for path in rep.edge_images for d, _ in path.steps), dtype=np.int64, count=sum(lengths)
    )
    keys = (darts >> 1) * n + np.repeat(np.arange(n), lengths)
    return np.bincount(keys, minlength=n * n).reshape(n, n)


@dataclass
class Stratum:
    index: int  # 1-based position in the filtration
    edges: tuple[int, ...]
    block: np.ndarray
    growing: bool
    eigenvalue: float | None = None  # upper end of the certified bracket
    bracket: tuple[float, float] | None = None  # Collatz-Wielandt (lo, hi) around the Perron root


@dataclass
class StrataDecomposition:
    matrix: np.ndarray
    strata: tuple[Stratum, ...]
    stratum_of: tuple[int, ...]  # per geometric edge, 1-based stratum index
    top_eigenvalue: float | None = None
    top_stratum: int | None = None
    # strata x edges: row r-1 holds stratum r's eigenvector weights, zero elsewhere
    weight_matrix: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.strata)

    def filtration(self, r: int) -> frozenset[int]:
        """Edges of the r-th filtration step (strata 1..r)."""
        return frozenset(e for s in self.strata[:r] for e in s.edges)


def stratify(M: np.ndarray) -> StrataDecomposition:
    """Cut the edges into strata, ordered so that images only descend.

    ``reach[i, j]`` holds when edge i lies in the image of some iterate of
    edge j: the reflexive closure of ``M > 0``, closed by Warshall's loop on
    booleans.  Its symmetric part ``reach & reach.T`` joins the edges of one
    strongly connected block, named by its smallest edge.  The blocks are
    placed lowest first by Kahn's algorithm on the arcs of M between blocks,
    with a heap keyed by that smallest edge: each step places the block of
    the smallest edge whose blocks below are all placed.  So stratum 1 is
    lowest, whenever M[i, j] > 0 the stratum of i is <= the stratum of j,
    and ties in the order go to the block with the smallest edge.  Every
    block is cut from one copy of M permuted into stratum order.
    Eigenvalue data is attached separately.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("transition matrix must be square")
    if M.size and (M < 0).any():
        raise InputError("transition matrix must be nonnegative")
    n = M.shape[0]
    if not n:
        return StrataDecomposition(M, (), ())
    arcs = M > 0
    reach = arcs | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k, None] & reach[None, k, :]
    root = (reach & reach.T).argmax(axis=0).tolist()  # the smallest edge of each edge's block
    members: dict[int, list[int]] = {}
    for e, r in enumerate(root):
        members.setdefault(r, []).append(e)
    above: dict[int, list[int]] = {r: [] for r in members}
    pending = dict.fromkeys(members, 0)  # per block, its arcs from blocks below not yet placed
    lower, upper = np.nonzero(arcs)
    for i, j in zip(lower.tolist(), upper.tolist()):
        if root[i] != root[j]:
            above[root[i]].append(root[j])
            pending[root[j]] += 1
    ready = [r for r in members if not pending[r]]  # increasing, so already a heap
    order: list[int] = []
    while ready:
        r = heapq.heappop(ready)
        order.append(r)
        for up in above[r]:
            pending[up] -= 1
            if not pending[up]:
                heapq.heappush(ready, up)
    perm = [e for r in order for e in members[r]]
    permuted = M[np.ix_(perm, perm)]
    nonzero_diagonal = (M.diagonal() != 0).tolist()
    strata = []
    stratum_of = [0] * n
    start = 0
    for index, r in enumerate(order, start=1):
        edges = tuple(members[r])
        stop = start + len(edges)
        # an irreducible block of two or more edges has an arc inside it
        growing = len(edges) > 1 or nonzero_diagonal[r]
        strata.append(Stratum(index, edges, permuted[start:stop, start:stop], growing))
        for e in edges:
            stratum_of[e] = index
        start = stop
    return StrataDecomposition(M, tuple(strata), tuple(stratum_of))


def attach_eigendata(dec: StrataDecomposition) -> StrataDecomposition:
    """Fill per-stratum certified Perron roots, brackets and eigenvector weights.

    The growing strata are certified in batches, one ``_pf_stack`` per
    block size: each stack goes through Noda's iteration for the roots and
    a short inverse iteration for the eigenvectors, whose Collatz-Wielandt
    bracket is computed once and kept.  A growing 1x1 block is a positive
    integer, which is its own root and exact bracket, with weight 1.  Each
    block's data is the same as it would be alone, whatever its
    stack-mates.  The weights are the rows of ``weight_matrix``.  Zero strata get root 0, bracket (0, 0)
    and a zero row.  ``top_eigenvalue`` is the largest upper end.
    ``top_stratum`` is the highest stratum whose bracket reaches the
    largest lower end: strata whose brackets cannot tell their roots
    apart count as tied, and ties go up.  A block that is not certified
    raises NonConvergenceError for its whole stack, before any stratum is written.
    """
    W = np.zeros((dec.count, dec.matrix.shape[0]))
    by_size: dict[int, list[Stratum]] = {}
    for s in dec.strata:
        if s.growing:
            by_size.setdefault(len(s.edges), []).append(s)
    stacks = [(stack, *_pf_stack(np.array([s.block for s in stack], dtype=np.float64))) for stack in by_size.values()]
    for stack, values, vecs, lo, hi in stacks:
        rows = [s.index - 1 for s in stack]
        edges = [s.edges for s in stack]
        W[np.repeat(rows, len(edges[0])), np.concatenate(edges)] = vecs.ravel()
        for s, value, b in zip(stack, values.tolist(), zip(lo.tolist(), hi.tolist())):
            s.eigenvalue, s.bracket = value, b
    for s in dec.strata:
        if not s.growing:
            s.eigenvalue, s.bracket = 0.0, (0.0, 0.0)
    dec.weight_matrix = W
    dec.top_eigenvalue = max(s.eigenvalue for s in dec.strata)
    floor = max(s.bracket[0] for s in dec.strata)
    dec.top_stratum = max(s.index for s in dec.strata if s.bracket[1] >= floor)
    return dec


# -- Perron-Frobenius -----------------------------------------------------------

#: relative width of the Collatz-Wielandt bracket that certifies a Perron root
PF_TOLERANCE = 1e-12
#: inverse iteration shifts the computed root up by this relative amount
_INVERSE_SHIFT = 1e-9
_INVERSE_STEPS = 3


def collatz_wielandt(blocks: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified Perron-root brackets ``(lo, hi)`` of a stack of blocks from trial row vectors.

    For a nonnegative B and a positive x, ``min_j (xB)_j / x_j <= rho(B) <=
    max_j (xB)_j / x_j`` (Collatz-Wielandt; Meyer, *Matrix Analysis*, 8.3).
    ``blocks`` is a stack of n x n blocks and ``vecs`` holds one x per block.
    The ends are widened by (n + 2) machine epsilons, which covers the
    rounding of the n products, their nonnegative sum and the division, so
    the bracket holds in exact arithmetic.  When x is all ones and B is
    integral (1x1 blocks, permutation blocks) the ratios are exact column
    sums and are not widened.  The bound needs x > 0, which callers check.
    """
    n = blocks.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.einsum("ni,nij->nj", vecs, blocks) / vecs
    exact = (
        (vecs == 1).all(axis=1)
        & (blocks == np.round(blocks)).all(axis=(1, 2))
        & (blocks.sum(axis=1) < 2**53).all(axis=1)
    )
    slack = np.where(exact, 0.0, (n + 2) * np.finfo(np.float64).eps)
    return ratios.min(axis=1) * (1 - slack), ratios.max(axis=1) * (1 + slack)


#: Noda's iteration converges quadratically on irreducible blocks; this caps the rest
_NODA_STEPS = 40


def _perron_roots(blocks: np.ndarray) -> np.ndarray:
    """Upper bounds on the Perron roots of a float stack, tight once each block converges.

    Noda's iteration (Numer. Math. 17, 1971), which for irreducible blocks
    decreases monotonically and converges quadratically (Elsner, Linear
    Algebra Appl. 15, 1976): from x = 1 and lambda the Collatz-Wielandt
    upper end, solve ``(lambda I - B^T) y = x`` and take x = y / max y and
    lambda its upper end.  A block is frozen once its bracket has relative
    width at most ``PF_TOLERANCE``, or when a step fails to give a positive
    x with a smaller upper end (the root is then reached to rounding, or
    the block is reducible), or after ``_NODA_STEPS`` steps.  A block with a zero
    column is reducible and is left at its largest column sum.  Each
    block's steps touch only its own rows, so its root does not depend on
    its stack-mates.
    """
    count, n, _ = blocks.shape
    sums = blocks.sum(axis=1)  # the ratios at x = 1
    roots, floor = sums.max(axis=1), sums.min(axis=1)
    live = np.flatnonzero((floor > 0) & (roots - floor > PF_TOLERANCE * roots))
    # the open blocks' rows, compressed as blocks freeze
    stack, lam, x = blocks[live], roots[live], np.ones((live.size, n))
    minus, eye = -np.swapaxes(stack, 1, 2), np.eye(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NODA_STEPS):
            if not live.size:
                break
            y = _solve_each(minus + lam[:, None, None] * eye, x[..., None])[..., 0]
            y /= y.max(axis=1, keepdims=True)
            ratios = np.einsum("ni,nij->nj", y, stack) / y
            hi, lo = ratios.max(axis=1), ratios.min(axis=1)
            better = (hi < lam) & (y.min(axis=1) > 0)
            lam = np.where(better, hi, lam)
            roots[live] = lam
            keep = better & (hi - lo > PF_TOLERANCE * hi)
            x = y
            if not keep.all():
                live, stack, minus, lam, x = live[keep], stack[keep], minus[keep], lam[keep], y[keep]
    return roots


def _solve_each(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack, with NaN for each exactly singular system."""
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for k, (a, b) in enumerate(zip(systems, rhs)):
            try:
                out[k] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                pass  # lambda is an eigenvalue: the root, reached exactly
        return out


def _pf_stack(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Certified Perron eigenpairs ``(values, vecs, lo, hi)`` of a float stack of irreducible blocks.

    The root comes from Noda's inverse iteration with Collatz-Wielandt
    shifts (``_perron_roots``).  Three steps of inverse iteration, shifted
    just above it, refine the row eigenvector x from the all-ones vector;
    it is normalised to maximum entry 1.  A block is certified when x > 0
    and its Collatz-Wielandt bracket ``(lo, hi)`` has relative width at
    most ``PF_TOLERANCE``; the returned eigenvalue is the bracket's upper
    end, so powers of it stay upper bounds.  A 1x1 block gets x = 1, so
    an integral entry is its own exact bracket.  Otherwise raises
    NonConvergenceError with the best ``(values, vectors)`` so far.  Each
    block's result is the same alone and in any stack.
    ``attach_eigendata`` sends every growing stratum of one size through
    one such stack.
    """
    count, n, _ = blocks.shape
    roots = _perron_roots(blocks)
    # a root <= 0 means a zero block; any nonzero shift keeps the solve regular
    shift = np.where(roots > 0, roots, 1.0) * (1 + _INVERSE_SHIFT)
    system = np.swapaxes(blocks, 1, 2) - shift[:, None, None] * np.eye(n)
    # each step grows y by about 1 / (shift - root); a few steps stay far from overflow
    y = np.ones((count, n, 1))
    try:
        for _ in range(_INVERSE_STEPS):
            y = np.linalg.solve(system, y)
    except np.linalg.LinAlgError as err:
        best = (roots, np.ones((count, n)))
        raise NonConvergenceError(f"inverse iteration failed: {err}", best=best) from None
    y = np.abs(y[..., 0])
    vecs = y / y.max(axis=1, keepdims=True)
    lo, hi = collatz_wielandt(blocks, vecs)
    certified = (vecs > 0).all(axis=1) & (hi - lo <= PF_TOLERANCE * hi)
    if not certified.all():
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero entry of x makes hi inf or NaN
            width = np.max(np.where(certified, 0.0, (hi - lo) / hi))
        raise NonConvergenceError(
            f"Perron root not certified on {np.count_nonzero(~certified)} of {count} blocks: "
            f"worst relative bracket width {width:.3e} (tolerance {PF_TOLERANCE})",
            best=(np.where(certified, hi, roots), vecs),
        )
    return hi, vecs, lo, hi


def pf_eigen(block: np.ndarray) -> tuple[float, np.ndarray]:
    """Certified Perron eigenvalue and positive row eigenvector of one irreducible block.

    ``_pf_stack`` on a one-block stack: the eigenvalue is the upper end of
    the Collatz-Wielandt bracket, which for an integral 1x1 block is its
    entry.
    Raises on zero or non-square input; irreducibility is the caller's
    contract (stratify guarantees it), and a block that is not certified
    raises NonConvergenceError.
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise InputError("eigen blocks must be square")
    if not block.any():
        raise InputError("eigen blocks must be nonzero")
    values, vecs, _, _ = _pf_stack(block[None].astype(np.float64))
    return float(values[0]), vecs[0]


# -- metrics from eigenvectors ---------------------------------------------------


def r_length(rep: TopologicalRepresentative, path: GraphPath, r: int) -> float:
    """Eigenvector-weighted length of the part of the path inside stratum r."""
    dec = rep.strata()
    if not 1 <= r <= dec.count:
        raise InputError(f"no stratum {r}")
    return float(dec.weight_matrix[r - 1] @ crossing_counts(path))


def pf_lengths(dec: StrataDecomposition) -> np.ndarray:
    """The PF edge lengths of certified strata: each edge's eigenvector entry, or 1 in a zero stratum.

    Eigenvectors only exist on growing strata.
    """
    row = np.array(dec.stratum_of, dtype=np.intp) - 1  # each edge's row of the weight matrix
    # each column holds one nonzero entry, on its growing stratum's row
    weights = dec.weight_matrix[row, np.arange(row.size)]
    weights[~np.array([s.growing for s in dec.strata])[row]] = 1.0
    return weights


def assign_pf_metric(rep: TopologicalRepresentative) -> MarkedMetricGraph:
    """Metric with the eigenvector entry as the length of each edge of a growing stratum (``pf_lengths``)."""
    return rep.graph.with_lengths(pf_lengths(rep.strata()).tolist())


def rescale_family(rep: TopologicalRepresentative, N: float) -> MarkedMetricGraph:
    """The PF metric with stratum r rescaled by N^r (the displacement family)."""
    if not N > 0:
        raise InputError("rescaling parameter must be positive")
    dec = rep.strata()
    try:
        scales = [float(N) ** r for r in range(1, dec.count + 1)]
    except OverflowError:
        raise InputError(
            f"N^r overflows a float at N = {N} on {dec.count} strata; "
            "displacement_bracket evaluates the family without forming N^r"
        ) from None
    lengths = pf_lengths(dec).tolist()
    return rep.graph.with_lengths([scales[r - 1] * w for r, w in zip(dec.stratum_of, lengths)])
