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
edge).  The strata's Perron-Frobenius data drive everything downstream:
eigenvector entries become edge lengths, the largest block eigenvalue is
the spectral growth rate, and per-stratum weighted lengths feed the growth
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonConvergenceError
from .free_product import Automorphism, Word
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

    def strata(self) -> StrataDecomposition:
        """Stratification with eigenvalues and eigenvector weights (cached)."""
        if self._strata is None:
            dec = stratify(transition_matrix(self))
            attach_eigendata(dec)
            self._strata = dec
        return self._strata

    def legality(self):
        """Turn legality from the gates of the derivative on directions (cached).

        Returns a ``legality.LegalityTable``, which memoises the turns asked
        for; ``legality.classify_turns`` fills a fresh one with every turn.
        """
        if self._legality is None:
            from .legality import LegalityTable  # the turn calculus builds on this module

            self._legality = LegalityTable(self)
        return self._legality


def verify_representative(rep: TopologicalRepresentative) -> list[Violation]:
    """All structural invariants plus the exact marking identity per generator."""
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
                    f"marking identity fails at generator {s!r}: "
                    f"{g.path_str(lhs)} != {g.path_str(rhs)}",
                )
            )
    return out


# -- transition matrix and strata ---------------------------------------------


def transition_matrix(rep: TopologicalRepresentative) -> np.ndarray:
    """Unoriented crossing counts: entry (i, j) counts edge i in the image of edge j."""
    n = rep.graph.n_edges
    M = np.zeros((n, n), dtype=np.int64)
    for j, path in enumerate(rep.edge_images):
        M[:, j] = crossing_counts(path)
    return M


@dataclass
class Stratum:
    index: int  # 1-based position in the filtration
    edges: tuple[int, ...]
    block: np.ndarray
    growing: bool
    eigenvalue: float | None = None  # upper end of the certified bracket
    bracket: tuple[float, float] | None = None  # Collatz-Wielandt (lo, hi) around the Perron root
    weights: dict[int, float] | None = None


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
    strongly connected block, and the rest is the strictly-below relation.
    Blocks are placed lowest first: each step places the block of the
    smallest unplaced edge with nothing unplaced below it.  So stratum 1 is
    lowest, whenever M[i, j] > 0 the stratum of i is <= the stratum of j,
    and ties in the order go to the block with the smallest edge.
    Eigenvalue data is attached separately.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("transition matrix must be square")
    if M.size and (M < 0).any():
        raise InputError("transition matrix must be nonnegative")
    n = M.shape[0]
    reach = (M > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k, None] & reach[None, k, :]
    same = reach & reach.T
    below = reach & ~same
    pending = below.sum(axis=0)  # per edge, the unplaced edges strictly below it
    placed = np.zeros(n, dtype=bool)
    strata = []
    stratum_of = [0] * n
    while not placed.all():
        members = np.flatnonzero(same[:, np.argmax(~placed & (pending == 0))])
        placed[members] = True
        pending -= below[members].sum(axis=0)
        edges = tuple(members.tolist())
        block = M[np.ix_(edges, edges)]
        strata.append(Stratum(len(strata) + 1, edges, block, bool(block.any())))
        for e in edges:
            stratum_of[e] = len(strata)
    return StrataDecomposition(M, tuple(strata), tuple(stratum_of))


def attach_eigendata(dec: StrataDecomposition) -> StrataDecomposition:
    """Fill per-stratum certified Perron roots, brackets and eigenvector weights.

    ``top_eigenvalue`` is the largest upper end.  ``top_stratum`` is the
    highest stratum whose bracket reaches the largest lower end: strata whose
    brackets cannot tell their roots apart count as tied, and ties go up.
    """
    W = np.zeros((dec.count, dec.matrix.shape[0]))
    for s in dec.strata:
        if not s.growing:
            s.eigenvalue = 0.0
            s.bracket = (0.0, 0.0)
            s.weights = None
            continue
        value, vec = pf_eigen(s.block)
        lo, hi = collatz_wielandt(s.block, vec)
        s.eigenvalue = value
        s.bracket = (float(lo[0]), float(hi[0]))
        s.weights = {e: float(vec[i]) for i, e in enumerate(s.edges)}
        W[s.index - 1, list(s.edges)] = vec
    dec.weight_matrix = W
    dec.top_eigenvalue = max(s.eigenvalue for s in dec.strata)
    floor = max(s.bracket[0] for s in dec.strata)
    dec.top_stratum = max(s.index for s in dec.strata if s.bracket[1] >= floor)
    return dec


# -- Perron-Frobenius -----------------------------------------------------------

#: inverse iteration shifts the computed root up by this relative amount
_INVERSE_SHIFT = 1e-9
_INVERSE_STEPS = 3


def collatz_wielandt(blocks: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified Perron-root brackets ``(lo, hi)`` from trial row vectors.

    For a nonnegative B and a positive x, ``min_j (xB)_j / x_j <= rho(B) <=
    max_j (xB)_j / x_j`` (Collatz-Wielandt; Meyer, *Matrix Analysis*, 8.3).
    The ends are widened by (n + 2) machine epsilons, which covers the
    rounding of the n products, their nonnegative sum and the division, so
    the bracket holds in exact arithmetic.  When x is all ones and B is
    integral (1x1 blocks, permutation blocks) the ratios are exact column
    sums and are not widened.  The bound needs x > 0, which callers check.
    Accepts one block or a stack.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    vecs = np.asarray(vecs, dtype=np.float64)
    if blocks.ndim == 2:
        blocks, vecs = blocks[None], vecs[None]
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


def pf_eigen_many(blocks: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Certified Perron eigenpairs of a stack of irreducible nonnegative matrices.

    The root is the eigenvalue of largest real part (``np.linalg.eigvals``).
    Three steps of inverse iteration, shifted just above it, refine the row
    eigenvector x from the all-ones vector; it is normalised to maximum
    entry 1.  A block is certified when x > 0 and its Collatz-Wielandt
    bracket has relative width at most ``tol``; the returned eigenvalue is
    the bracket's upper end, so powers of it stay upper bounds.  Otherwise
    raises NonConvergenceError with the best ``(values, vectors)`` so far.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim == 2:
        blocks = blocks[None]
    count, n, _ = blocks.shape
    if n == 1:
        return blocks[:, 0, 0].copy(), np.ones((count, 1))
    transposed = np.swapaxes(blocks, 1, 2)
    roots = np.linalg.eigvals(transposed).real.max(axis=1)
    # a root <= 0 means a nilpotent (reducible) block; any nonzero shift keeps the solve regular
    shift = np.where(roots > 0, roots, 1.0) * (1 + _INVERSE_SHIFT)
    system = transposed - shift[:, None, None] * np.eye(n)
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
    certified = (vecs > 0).all(axis=1) & (hi - lo <= tol * hi)
    if not certified.all():
        width = np.max(np.where(certified, 0.0, (hi - lo) / hi))
        raise NonConvergenceError(
            f"Perron root not certified on {np.count_nonzero(~certified)} of {count} blocks: "
            f"worst relative bracket width {width:.3e} (tolerance {tol})",
            best=(np.where(certified, hi, roots), vecs),
        )
    return hi, vecs


def pf_eigen(block: np.ndarray, tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Certified Perron eigenvalue and positive row eigenvector of one irreducible block.

    The eigenvalue is the upper end of the Collatz-Wielandt bracket (see
    ``pf_eigen_many``); 1x1 blocks are returned exactly.  Raises on zero or
    non-square input; irreducibility is the caller's contract (stratify
    guarantees it), and a block that is not certified raises
    NonConvergenceError.
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise InputError("eigen blocks must be square")
    if not block.any():
        raise InputError("eigen blocks must be nonzero")
    if block.shape[0] == 1:
        return float(block[0, 0]), np.ones(1)
    values, vecs = pf_eigen_many(block[None], tol=tol)
    return float(values[0]), vecs[0]


# -- metrics from eigenvectors ---------------------------------------------------


def r_length(rep: TopologicalRepresentative, path: GraphPath, r: int) -> float:
    """Eigenvector-weighted length of the part of the path inside stratum r."""
    dec = rep.strata()
    if not 1 <= r <= dec.count:
        raise InputError(f"no stratum {r}")
    return float(dec.weight_matrix[r - 1] @ crossing_counts(path))


def assign_pf_metric(
    rep: TopologicalRepresentative,
    scales: float | list[float] | tuple[float, ...] = 1.0,
    zero_length: float | None = 1.0,
) -> MarkedMetricGraph:
    """Metric with edge lengths c_r * (eigenvector entry) on each stratum r.

    Eigenvectors only exist on growing strata; edges of zero strata take
    ``zero_length`` (scaled by their stratum's c_r as well).  Passing
    ``zero_length=None`` makes zero strata an error.
    """
    dec = rep.strata()
    if isinstance(scales, (int, float)):
        scales = [float(scales)] * dec.count
    if len(scales) != dec.count:
        raise InputError(f"{dec.count} stratum scales required")
    if any(not c > 0 for c in scales):
        raise InputError("stratum scales must be positive")
    lengths = [0.0] * rep.graph.n_edges
    for s in dec.strata:
        c = float(scales[s.index - 1])
        for e in s.edges:
            if s.weights is not None:
                lengths[e] = c * s.weights[e]
            elif zero_length is not None:
                lengths[e] = c * float(zero_length)
            else:
                raise InputError(
                    f"stratum {s.index} is a zero stratum and needs an explicit edge length"
                )
    return rep.graph.with_lengths(lengths)


def rescale_family(rep: TopologicalRepresentative, N: float, zero_length: float | None = 1.0) -> MarkedMetricGraph:
    """The metric with stratum r rescaled by N^r (the displacement family)."""
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
    return assign_pf_metric(rep, scales, zero_length)
