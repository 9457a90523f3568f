"""Simplicial self-maps of marked graphs and their stratified transition matrices.

A topological representative stores, on the quotient graph, everything a
straight map of trees carries: a vertex image for every vertex, an
isomorphism-with-conjugator for every vertex group, a reduced edge path for
every edge (linear on edges, so the map is straight by construction), and a
tether path recording where the base point goes.  The representative is
*verified* against its automorphism through the exact marking identity

    tether . f(marking(s)) . tether^-1  ==  marking(s . alpha)

for every generator s, using literal equality of reduced paths.

The transition matrix counts unoriented edge crossings of the images.  Its
strongly connected blocks, ordered so that images only descend, cut the
edges into strata whose Perron-Frobenius data drive everything downstream:
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

    # -- the map ----------------------------------------------------------

    def image_vertex(self, v: int) -> int:
        return self.vertex_images[v]

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


def verify_representative(rep: TopologicalRepresentative) -> list[Violation]:
    """All structural invariants plus the exact marking identity per generator."""
    g = rep.graph
    G = g.group
    out = list(validate_graph(g))
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


def crossing_counts(path: GraphPath) -> np.ndarray:
    """Unoriented edge crossings of a path: entry i counts edge i."""
    darts = np.fromiter((d for d, _ in path.steps), dtype=np.int64, count=len(path.steps))
    return np.bincount(darts >> 1, minlength=path.graph.n_edges)


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
    eigenvalue: float | None = None
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


def _scc(M: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the digraph j -> i when M[i, j] > 0.

    Iterative Tarjan; component order is normalised afterwards, so only the
    partition matters here.
    """
    n = M.shape[0]
    succ = [[i for i in range(n) if M[i, j] > 0] for j in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def stratify(M: np.ndarray) -> StrataDecomposition:
    """Order the strongly connected blocks of M so that images only descend.

    Stratum 1 is lowest; whenever M[i, j] > 0 the stratum of i is <= the
    stratum of j.  Ties in the topological order are broken by the smallest
    contained edge index, so the result is independent of component
    discovery order.  Eigenvalue data is attached separately.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("transition matrix must be square")
    if M.size and (M < 0).any():
        raise InputError("transition matrix must be nonnegative")
    comps = [sorted(c) for c in _scc(M)]
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    # arcs between components follow the arrows j -> i of the edge digraph
    out_arcs: list[set[int]] = [set() for _ in comps]
    in_arcs: list[set[int]] = [set() for _ in comps]
    nz = np.argwhere(M > 0)
    for i, j in nz:
        ci, cj = comp_of[int(i)], comp_of[int(j)]
        if ci != cj:
            out_arcs[cj].add(ci)
            in_arcs[ci].add(cj)
    placed: list[int] = []
    remaining = set(range(len(comps)))
    pending_out = [set(s) for s in out_arcs]
    while remaining:
        sinks = [c for c in remaining if not pending_out[c]]
        chosen = min(sinks, key=lambda c: comps[c][0])
        placed.append(chosen)
        remaining.discard(chosen)
        for c in in_arcs[chosen]:
            pending_out[c].discard(chosen)
    strata = []
    stratum_of = [0] * M.shape[0]
    for pos, ci in enumerate(placed, start=1):
        edges = tuple(comps[ci])
        block = M[np.ix_(edges, edges)]
        growing = bool(block.any())
        strata.append(Stratum(pos, edges, block, growing))
        for e in edges:
            stratum_of[e] = pos
    return StrataDecomposition(M, tuple(strata), tuple(stratum_of))


def attach_eigendata(dec: StrataDecomposition) -> StrataDecomposition:
    """Fill per-stratum Perron-Frobenius eigenvalues and eigenvector weights."""
    W = np.zeros((dec.count, dec.matrix.shape[0]))
    for s in dec.strata:
        if not s.growing:
            s.eigenvalue = 0.0
            s.weights = None
            continue
        value, vec = pf_eigen(s.block)
        s.eigenvalue = value
        s.weights = {e: float(vec[i]) for i, e in enumerate(s.edges)}
        W[s.index - 1, list(s.edges)] = vec
    dec.weight_matrix = W
    best = max(s.eigenvalue for s in dec.strata)
    dec.top_eigenvalue = best
    dec.top_stratum = max(s.index for s in dec.strata if s.eigenvalue == best)
    return dec


# -- Perron-Frobenius -----------------------------------------------------------


def pf_eigen_many(
    blocks: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6
) -> tuple[np.ndarray, np.ndarray]:
    """Perron eigenpairs of a stack of irreducible nonnegative matrices.

    Power iteration on B + I (the shift makes periodic irreducible matrices
    aperiodic without moving the eigenvector) from the all-ones vector,
    stopping when every row eigenvector has relative residual <= tol.
    Eigenvectors are normalised to maximum entry 1.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim == 2:
        blocks = blocks[None]
    count, n, _ = blocks.shape
    if n == 1:
        return blocks[:, 0, 0].copy(), np.ones((count, 1))
    out_values = np.empty(count)
    out_vecs = np.empty((count, n))
    active = np.arange(count)
    act_blocks = blocks
    act_shifted = blocks + np.eye(n)
    vecs = np.ones((count, n))
    rel = np.full(count, np.inf)
    for _ in range(max_iter):
        advanced = np.einsum("ni,nij->nj", vecs, act_shifted)
        norms = advanced.max(axis=1)
        vecs = advanced / norms[:, None]
        values = norms - 1.0
        residual = np.einsum("ni,nij->nj", vecs, act_blocks) - values[:, None] * vecs
        rel = np.abs(residual).max(axis=1) / np.maximum(values, 1e-300)
        done = rel <= tol
        if done.any():
            idx = active[done]
            out_values[idx] = values[done]
            out_vecs[idx] = vecs[done]
            keep = ~done
            if not keep.any():
                return out_values, out_vecs
            active = active[keep]
            vecs = vecs[keep]
            values = values[keep]
            act_blocks = act_blocks[keep]
            act_shifted = act_shifted[keep]
    raise NonConvergenceError(
        f"power iteration did not reach tolerance {tol}; worst relative residual {rel.max():.3e}",
        best=(out_values, out_vecs),
    )


def pf_eigen(block: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6) -> tuple[float, np.ndarray]:
    """Perron eigenvalue and positive row eigenvector of one irreducible block.

    1x1 blocks are returned exactly.  Raises on zero or non-square input;
    irreducibility is the caller's contract (stratify guarantees it).
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise InputError("eigen blocks must be square")
    if not block.any():
        raise InputError("eigen blocks must be nonzero")
    if block.shape[0] == 1:
        return float(block[0, 0]), np.ones(1)
    values, vecs = pf_eigen_many(block[None], tol=tol, max_iter=max_iter)
    return float(values[0]), vecs[0]


def column_sum_bounds(block: np.ndarray) -> tuple[float, float]:
    """(min, max) column sums; the Perron eigenvalue lies between them."""
    sums = np.asarray(block).sum(axis=0)
    return float(sums.min()), float(sums.max())


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
    return assign_pf_metric(rep, [float(N) ** r for r in range(1, dec.count + 1)], zero_length)
