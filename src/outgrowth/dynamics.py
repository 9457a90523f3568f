"""Growth sequences, displacement brackets, and the polynomial growth bound.

The growth rate of an automorphism along an element is the limsup of k-th
roots of conjugacy lengths along the orbit.  At desk scale we report two
estimators side by side: normalised k-th roots (l_k / l_0)^(1/k) and the
geometric mean of the tail of successive ratios, declaring convergence
when they agree.  The ratio estimator is the headline figure because on
eigenvector metrics it locks onto the stratum eigenvalue immediately,
while raw k-th roots approach it only like mu^(1-1/k); for hyperbolic
elements the estimate is floored at 1, which the length floor on
hyperbolic conjugacy classes certifies.

Orbit lengths come one of two ways.  The word path rewrites g alpha^k at
every step as its cyclic core and measures it, under a syllable guard.  Given a
verified representative, a length with a marked graph takes the
train-track fast path when every edge image is legal and the loop of g is
cyclically legal: no iterate of the loop cancels, so its crossing vector
evolves as c_{k+1} = M c_k, kept in exact integers, and each length is
summed from it exactly as on the word path, so both give the same floats.
The guard then counts the loop's darts, and a length past the float range
trips it too.  Tree lengths carry their graph, and so does relative length
without an extended generating set: on hyperbolic elements it is the
translation length on the standard rose.

The displacement bracket squeezes the minimal Lipschitz displacement
between a certified lower bound from growth estimates and the smallest
Lipschitz constant over the rescaled metric family, whose stratum r is
scaled by N^r; as N grows those constants descend toward the top stratum
eigenvalue.  Lipschitz constants and stratum-interaction coefficients are
read off the transition matrix M: images have lengths L @ M on edge
lengths L, and stratum lengths W @ M on the stratum weight matrix W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .free_product import Automorphism, Word, relative_conjugacy_length
from .graph_of_groups import LENGTH_TOL, MarkedMetricGraph, crossing_counts, cyclically_reduce, standard_rose
from .graph_map import TopologicalRepresentative, assign_pf_metric, pf_lengths, transition_matrix
from .legality import illegal_turn, verify_train_track

WORD_GUARD = 10**6  # syllable guard for automorphism iteration
ITERATIONS = 20  # orbit steps when a caller names none
N_GRID = (1.0, 10.0, 100.0, 1000.0)  # rescaling factors N of the Lipschitz sweep
GROWTH_TOLERANCE = 1e-2  # agreement of the root and ratio estimates that counts as converged


class LengthFunction:
    """A conjugacy length function together with its boundedness witnesses.

    ``elliptic_bound`` dominates every elliptic conjugacy class and
    ``hyperbolic_floor`` is a positive lower bound on hyperbolic ones; both
    witness homogeneity-compatible boundedness for growth estimates.
    """

    def __init__(
        self,
        kind: str,
        evaluate: Callable[[Word], float],
        elliptic_bound: float,
        hyperbolic_floor: float,
        graph: MarkedMetricGraph | None = None,
    ):
        self.kind = kind
        self.evaluate = evaluate
        self.elliptic_bound = elliptic_bound
        self.hyperbolic_floor = hyperbolic_floor
        self._graph = graph

    @property
    def graph(self) -> MarkedMetricGraph | None:
        """A marked metric graph whose translation length this length equals, or None."""
        return self._graph

    def __call__(self, w: Word) -> float:
        return self.evaluate(w)

    def __repr__(self):
        return f"<length {self.kind}>"


class _RelativeLength(LengthFunction):
    def __init__(self, group):
        super().__init__("relative", lambda w: float(relative_conjugacy_length(w)), 1.0, 1.0, standard_rose(group))
        self._group = group

    @property
    def graph(self) -> MarkedMetricGraph | None:
        # read at every use, so an orbit started after set_relative_generators takes the word path
        return self._graph if self._group.relative_generators is None else None


def relative_length_function(group) -> LengthFunction:
    """Relative conjugacy length over E u Ghat: C = 1, floor 1.

    Without an extended generating set, a hyperbolic element's relative
    conjugacy length is its translation length on ``standard_rose(group)``
    (unit petals, half-length spokes), so the length carries that graph and
    its orbits can take the train-track fast path.  The generating set is
    read when an orbit starts, not when the length is made.  Elliptic
    elements are still measured by ``relative_conjugacy_length``, at 0 or 1.
    """
    return _RelativeLength(group)


def tree_length_function(graph: MarkedMetricGraph) -> LengthFunction:
    """Translation length on a marked metric graph: C = 0, floor = shortest edge."""
    graph.require_edges()
    return LengthFunction("tree", graph.translation_length, 0.0, min(graph.lengths), graph)


# -- growth ---------------------------------------------------------------------


@dataclass
class GrowthReport:
    element: Word
    length_kind: str
    values: list[float]
    iterations: int
    root_estimates: list[float] = field(default_factory=list)
    ratio_estimates: list[float | None] = field(default_factory=list)
    estimate: float | None = None
    converged: bool | None = None
    note: str = ""
    tolerance: float | None = None
    guard: int = WORD_GUARD

    def to_record(self) -> dict:
        return {
            "element": repr(self.element),
            "length": self.length_kind,
            "iterations": self.iterations,
            "values": self.values,
            "root_estimates": self.root_estimates,
            "ratio_estimates": self.ratio_estimates,
            "estimate": self.estimate,
            "converged": self.converged,
            "note": self.note,
            "tolerance": self.tolerance,
            "word_guard": self.guard,
        }


def growth_sequence(
    auto: Automorphism,
    g: Word,
    length: LengthFunction,
    iterations: int,
    guard: int = WORD_GUARD,
    rep: TopologicalRepresentative | None = None,
) -> GrowthReport:
    """Lengths along the orbit g, g.alpha, ..., g.alpha^K (estimates not yet filled).

    Given a verified representative ``rep`` of ``auto``, a length with a
    marked graph whose loop of g is cyclically legal on a train track takes
    the crossing-count fast path (``_legal_loop_counts``); every other orbit
    rewrites the word at each step and measures it, cut to its cyclic core
    when its ends cancel or merge: both lengths are conjugacy invariant, so
    no conjugator grows along the orbit.  Both paths give the same floats.
    Raises InputError when the guard is below 1, and ResourceLimitError
    carrying the partial report when an iterate exceeds the guard:
    syllables of the iterated word, or darts of the loop on the fast path.
    """
    if iterations < 1:
        raise InputError("growth sequences need at least one iteration")
    if guard < 1:
        raise InputError(f"the guard must be at least 1, not {guard}")
    if rep is not None and rep.automorphism is not auto:
        raise InputError("the representative realises a different automorphism")
    counts = _legal_loop_counts(rep, g, length) if rep is not None else None
    if counts is not None:
        return _crossing_count_orbit(rep, g, length, counts, iterations, guard)
    values = [float(length(g))]
    w = g
    for k in range(1, iterations + 1):
        w = auto.apply(w)
        core, conjugator = g.group._cyclic_core(w.syllables)
        if conjugator:
            w = Word(g.group, tuple(core))
        if len(w.syllables) > guard:
            message = f"word length exceeded the guard ({guard} syllables) at step {k}"
            raise _tripped(g, length, values, guard, message)
        values.append(float(length(w)))
    return GrowthReport(g, length.kind, values, iterations, guard=guard)


def _tripped(
    g: Word, length: LengthFunction, values: list[float], guard: int, message: str
) -> ResourceLimitError:
    """The guard error, carrying the lengths computed before the step that tripped it."""
    partial = GrowthReport(g, length.kind, values, len(values) - 1, guard=guard)
    return ResourceLimitError(message, partial=partial)


def _legal_loop_counts(rep: TopologicalRepresentative, g: Word, length: LengthFunction) -> list[int] | None:
    """Edge crossings of g's cyclically reduced loop when no iterate of it cancels, else None.

    That holds for a length with a marked graph (``LengthFunction.graph``,
    whose translation length it equals on hyperbolic elements) marked like
    the representative's, when every edge image is legal (a train track)
    and the loop takes only legal turns, its seam included: legal turns map
    to legal turns, so f^k(loop) stays cyclically reduced and crosses edge i
    exactly (M^k c)_i times (Bestvina-Handel 1992), and the marking identity
    makes it a loop of g alpha^k.
    """
    graph = length.graph
    if graph is None or not rep.graph.marks_like(graph):
        return None
    if not verify_train_track(rep):
        return None
    core, _ = cyclically_reduce(graph.loop_of_element(g))
    if not core.steps or illegal_turn(rep, core, cyclic=True) is not None:
        return None
    return crossing_counts(core).tolist()


def _crossing_count_orbit(
    rep: TopologicalRepresentative,
    g: Word,
    length: LengthFunction,
    counts: list[int],
    iterations: int,
    guard: int,
) -> GrowthReport:
    """Iterate c -> M c in exact integers and measure each c as ``path_length`` does."""
    M = transition_matrix(rep)  # the counts alone: the fast path needs no Warshall pass and no Perron data
    nonzero = [(int(i), int(j), int(M[i, j])) for i, j in zip(*np.nonzero(M))]
    graph = length.graph
    values = [graph.counts_length(counts)]
    for k in range(1, iterations + 1):
        image = [0] * len(counts)
        for i, j, m in nonzero:
            image[i] += m * counts[j]
        counts = image
        if sum(counts) > guard:
            message = f"loop length exceeded the guard ({guard} darts) at step {k}"
            raise _tripped(g, length, values, guard, message)
        try:
            value = graph.counts_length(counts)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise _tripped(g, length, values, guard, f"orbit length left the float range at step {k}")
        values.append(value)
    return GrowthReport(g, length.kind, values, iterations, guard=guard)


def growth_rate_estimate(report: GrowthReport) -> GrowthReport:
    """Fill estimators and the convergence verdict into a growth report.

    Convergence means the normalised k-th root at the last step agrees with
    the tail-ratio geometric mean within ``GROWTH_TOLERANCE``; no
    extrapolation past the computed range is claimed.
    """
    v = report.values
    K = report.iterations
    if K < 1:
        raise InputError("estimates need at least one iteration")
    short_run = "too few iterations for a meaningful estimate; " if K < 5 else ""
    roots = []
    for k in range(1, K + 1):
        if v[0] > 0:
            roots.append((v[k] / v[0]) ** (1.0 / k))
        else:
            roots.append(v[k] ** (1.0 / k))
    ratios: list[float | None] = [
        (v[k] / v[k - 1]) if v[k - 1] > 0 else None for k in range(1, K + 1)
    ]
    tail = max(1, K // 2)
    ratio_estimate = (v[K] / v[K - tail]) ** (1.0 / tail) if v[K - tail] > 0 else 0.0
    root_estimate = roots[-1]
    hyperbolic = report.element.is_hyperbolic()
    estimate = ratio_estimate
    note = ""
    if hyperbolic and estimate < 1.0:
        # hyperbolic lengths are bounded below, so the true limsup is >= 1
        estimate = 1.0
        note = "estimate floored at 1 (hyperbolic length floor)"
    converged = abs(root_estimate - estimate) <= GROWTH_TOLERANCE
    if converged:
        note = note or "converged"
    elif hyperbolic and estimate < root_estimate and estimate <= 1.0 + 10 * GROWTH_TOLERANCE:
        note = "unconverged-to-1-from-above"
    else:
        note = note or "unconverged"
    report.root_estimates = roots
    report.ratio_estimates = ratios
    report.estimate = estimate
    report.converged = converged
    report.note = short_run + note
    report.tolerance = GROWTH_TOLERANCE
    return report


def growth_report(
    auto: Automorphism,
    g: Word,
    length: LengthFunction,
    iterations: int = ITERATIONS,
    guard: int = WORD_GUARD,
    rep: TopologicalRepresentative | None = None,
) -> GrowthReport:
    """Sequence plus estimates in one call."""
    return growth_rate_estimate(growth_sequence(auto, g, length, iterations, guard, rep))


# -- spectral and Lipschitz data ----------------------------------------------


def lipschitz_constant(rep: TopologicalRepresentative, metric: MarkedMetricGraph) -> tuple[float, int]:
    """max over edges of (image length / edge length), with a witness edge.

    The map is linear on edges, so this maximum is the Lipschitz constant
    of the induced map on the metric graph ``metric``, which is marked like
    the representative's graph.  The witness is the first edge attaining it.
    """
    if not metric.n_edges:
        raise InputError("graph has no edges")
    lengths = np.array(metric.lengths)
    ratios = (lengths @ rep.stratification().matrix) / lengths
    witness = int(ratios.argmax())
    return float(ratios[witness]), witness


# -- displacement ----------------------------------------------------------------


@dataclass
class DisplacementReport:
    n_grid: list[float]
    lipschitz: list[tuple[float, float, int]]  # (N, Lip(f_N), witness edge)
    lower: float
    upper: float
    upper_at: float
    top_eigenvalue: float
    top_stratum: int
    growth_reports: list[GrowthReport]
    monotone: bool
    iterations: int

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_record(self) -> dict:
        return {
            "n_grid": self.n_grid,
            "lipschitz": [
                {"N": n, "lip": lip, "witness_edge": w} for n, lip, w in self.lipschitz
            ],
            "lower": self.lower,
            "upper": self.upper,
            "upper_at": self.upper_at,
            "bracket": [self.lower, self.upper],
            "width": self.width,
            "top_eigenvalue": self.top_eigenvalue,
            "top_stratum": self.top_stratum,
            "gap_to_top": self.upper - self.top_eigenvalue,
            "monotone_nonincreasing": self.monotone,
            "growth": [r.to_record() for r in self.growth_reports],
            "iterations": self.iterations,
            "tolerance": GROWTH_TOLERANCE,
        }


def displacement_bracket(
    rep: TopologicalRepresentative,
    n_grid: Sequence[float] = N_GRID,
    iterations: int = ITERATIONS,
    sample: Sequence[Word] = (),
) -> DisplacementReport:
    """Bracket the displacement between growth estimates and rescaled Lipschitz constants.

    The upper side minimises the Lipschitz constant over the N-grid of
    rescaled eigenvector metrics.  The lower side takes the largest
    *converged* growth estimate over the hyperbolic sample, floored at 1
    (always valid) and capped at the upper side.  Unconverged estimates,
    and converged ones above upper * (1 + GROWTH_TOLERANCE), which growth
    cannot reach, are reported but not trusted as bounds.  An orbit that
    trips the guard is reported as far as it got, unconverged, with the
    guard's message as its note.
    """
    dec = rep.strata()
    grid = np.array(n_grid, dtype=float)
    if not grid.size or not (np.isfinite(grid) & (grid > 0)).all():
        raise InputError("the N grid must be nonempty, with every N finite and positive")
    base = assign_pf_metric(rep)
    # Lip(f_N) on edge e is sum_i M[i, e] N^s(i) L[i] / (N^s(e) L[e]) with L the
    # unscaled metric and s the stratum; images only descend, so s(i) - s(e) <= 0
    # and N^r itself, which leaves the float range on long filtrations, is never formed.
    lengths = np.array(base.lengths)
    stratum = np.array(dec.stratum_of)
    i, e = np.nonzero(dec.matrix)
    with np.errstate(over="ignore"):  # N < 1 can overflow; the check below reports it
        terms = dec.matrix[i, e] * lengths[i] / lengths[e] * grid[:, None] ** (stratum[i] - stratum[e])
    ratios = np.zeros((grid.size, lengths.size))
    np.add.at(ratios.T, e, terms.T)
    witness = ratios.argmax(axis=1)
    lips = ratios[np.arange(grid.size), witness]
    if not np.isfinite(lips).all():
        raise InputError("Lipschitz constants on this N grid leave the float range")
    upper = float(lips.min())
    length = tree_length_function(base)
    reports = []
    lower = 1.0
    for g in sample:
        if not g.is_hyperbolic():
            continue
        try:
            rpt = growth_report(rep.automorphism, g, length, iterations, rep=rep)
        except ResourceLimitError as err:
            rpt = err.partial
            rpt.converged, rpt.note = False, str(err)
        reports.append(rpt)
        if not rpt.converged:
            continue
        if rpt.estimate > upper * (1 + GROWTH_TOLERANCE):
            rpt.note += "; above the Lipschitz upper side, not used as a lower bound"
        else:
            lower = max(lower, rpt.estimate)
    return DisplacementReport(
        grid.tolist(),
        [(float(N), float(lip), int(w)) for N, lip, w in zip(grid, lips, witness)],
        min(lower, upper),
        upper,
        float(grid[lips == upper].min()),
        dec.top_eigenvalue,
        dec.top_stratum,
        reports,
        bool((lips[1:] <= lips[:-1] * (1 + 1e-12)).all()),
        iterations,
    )


# -- the polynomial growth bound ---------------------------------------------------


def coefficient_matrix(rep: TopologicalRepresentative) -> np.ndarray:
    """Stratum-interaction coefficients: entry (r-1, i-1) bounds stratum-r growth
    contributed per unit length of stratum-i edges.

    Row r, column i holds max over edges e of stratum i of the stratum-r
    weighted length of the image of e divided by the PF-metric length of e.
    Entries below the diagonal vanish because images only descend.
    """
    dec = rep.strata()
    A = np.zeros((dec.count, dec.count))
    ratios = (dec.weight_matrix @ dec.matrix) / pf_lengths(dec)
    # column i of A takes the maximum over the edges of stratum i
    np.maximum.at(A.T, np.array(dec.stratum_of) - 1, ratios.T)
    return A


def index_count(k: int, r: int, m: int) -> int:
    """Number of non-decreasing k-tuples drawn from {r, ..., m}."""
    if not (1 <= r <= m and k >= 1):
        raise InputError("index_count requires 1 <= r <= m and k >= 1")
    return math.comb(k + m - r, k)


@dataclass
class BoundReport:
    element: Word
    coefficients: np.ndarray
    product_bound: float  # product over i != j of max(1, A(i, j))
    top_eigenvalue: float
    base_length: float
    rows: list[dict]
    stratum_rows: list[dict]
    ok: bool
    iterations: int

    def to_record(self) -> dict:
        return {
            "element": repr(self.element),
            "coefficients": self.coefficients.tolist(),
            "product_bound": self.product_bound,
            "top_eigenvalue": self.top_eigenvalue,
            "base_length": self.base_length,
            "rows": self.rows,
            "stratum_rows": self.stratum_rows,
            "ok": self.ok,
            "iterations": self.iterations,
        }


def off_diagonal_product(A: np.ndarray) -> float:
    """Product over i != j of max(1, A(i, j)), taken left to right in row-major order.

    ``np.fmax`` takes 1 over a NaN entry, as ``max(1.0, nan)`` does.
    """
    return math.prod(np.fmax(1.0, A[~np.eye(len(A), dtype=bool)]).tolist(), start=1.0)


def bound_check(
    rep: TopologicalRepresentative,
    g: Word,
    iterations: int = ITERATIONS,
) -> BoundReport:
    """Verify the polynomial bound P(k) mu^k l(g) on orbit lengths, step by step.

    P(k) multiplies the tuple counts by the product over i != j of
    max(1, A(i, j)); taking the max against 1 keeps the bound meaningful
    when an off-diagonal coefficient vanishes (each such coefficient enters
    a product at most once, so inflating it to 1 never shrinks the bound).
    Also checks the single-step per-stratum inequality
    L_r(g alpha) <= sum_{i >= r} A(r, i) L_i(g).
    """
    if not g.is_hyperbolic():
        raise InputError("the growth bound concerns hyperbolic elements")
    dec = rep.strata()
    m = dec.count
    metric = assign_pf_metric(rep)
    A = coefficient_matrix(rep)
    product_bound = off_diagonal_product(A)
    mu = dec.top_eigenvalue
    length = tree_length_function(metric)
    report = growth_sequence(rep.automorphism, g, length, iterations, rep=rep)
    base = report.values[0]
    slack = 1 + LENGTH_TOL
    rows = []
    ok = True
    for k in range(1, iterations + 1):
        counts = [index_count(k, r, m) for r in range(1, m + 1)]
        poly = product_bound * sum(counts)
        bound = poly * mu**k * base
        observed = report.values[k]
        good = observed <= bound * slack
        ok = ok and good
        rows.append(
            {
                "k": k,
                "index_counts": counts,
                "polynomial": poly,
                "bound": bound,
                "observed": observed,
                "ok": good,
            }
        )
    # single-step inequality per stratum, on fundamental-domain loops; A is upper
    # triangular, so row r of A @ L(g) only sums over strata i >= r
    core0, _ = cyclically_reduce(metric.loop_of_element(g))
    core1, _ = cyclically_reduce(metric.loop_of_element(rep.automorphism.apply(g)))
    W = dec.weight_matrix
    lhs = W @ crossing_counts(core1)
    rhs = A @ (W @ crossing_counts(core0))
    stratum_rows = [
        {"stratum": r, "lhs": float(x), "rhs": float(y), "ok": bool(x <= y * slack + LENGTH_TOL * 1e-3)}
        for r, (x, y) in enumerate(zip(lhs, rhs), start=1)
    ]
    ok = ok and all(row["ok"] for row in stratum_rows)
    return BoundReport(g, A, product_bound, mu, base, rows, stratum_rows, ok, iterations)
