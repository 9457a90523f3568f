"""The four workloads: their fixed operation lists, inputs and output checks.

An operation is one ``outgrowth <command> ... --format json`` (or, for
``find_r_legal_hyperbolic``, one library call), and a check that decides
from the operation's output alone, against closed forms computed in
``families`` or properties the method must have, whether the answer is
right.  Checks never compare against stored program output.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families as fam

PHI = (1 + 5**0.5) / 2
FREE_SYLLABLE = 1  # the tag of a free-letter syllable in outgrowth's words
EIG_TOL = 1e-9  # eigenvalues and Lipschitz constants against closed forms
LEN_TOL = 1e-9  # eigenvector-weighted lengths against closed forms

# a long N-grid for sweeps; N^100 stays below the float limit for N <= 1000
LONG_GRID = ",".join(str(1 + 5 * i) for i in range(200))

# the bundled fixtures, by name
FIXTURES = ("golden_ratio_rose", "polynomial_rose", "c3c3_swap", "c2f2_mixed")


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


@dataclass
class Op:
    """One operation of a round.

    ``args`` is the outgrowth command line; a library operation sets
    ``library`` instead, a function of the document path.  ``check`` gets
    the decoded JSON report (or the library result) and raises CheckFailed.
    """

    label: str
    args: list[str]
    check: Callable
    library: Callable | None = None


def command(label: str, args: list[str], check: Callable) -> Op:
    return Op(label, [*args, "--format", "json"], lambda out: check(json.loads(out)["report"]))


# -- closed forms on the rose families ------------------------------------------------


@functools.cache
def chord_mu(n: int) -> float:
    return fam.chord_root(n)


@functools.cache
def chord_weights(n: int) -> tuple[float, ...]:
    return tuple(fam.chord_weights(n))


def weighted(counts: list[int], weights) -> float:
    return sum(c * w for c, w in zip(counts, weights))


def check_growth_values(values: list[float], expected: list[float], tol: float = 0.0) -> None:
    expect(len(values) == len(expected), f"{len(values)} orbit lengths, expected {len(expected)}")
    for k, (v, e) in enumerate(zip(values, expected)):
        expect(close(v, e, tol) if tol else v == e, f"orbit length at k={k} is {v!r}, expected {e!r}")


def check_bound(report: dict, expected_observed: list[float], tol: float) -> None:
    expect(report["ok"] is True, "bound check did not report ok")
    rows = report["rows"]
    expect(all(r["ok"] and r["observed"] <= r["bound"] * (1 + 1e-9) for r in rows), "a bound row fails")
    check_growth_values([report["base_length"]] + [r["observed"] for r in rows], expected_observed, tol)


def check_sweep_rows(rows: list[dict], expected: Callable[[float], float], tol: float) -> None:
    expect(bool(rows), "empty sweep")
    for r in rows:
        want = expected(r["N"])
        expect(close(r["lipschitz"], want, tol), f"Lipschitz {r['lipschitz']!r} at N={r['N']}, expected {want!r}")


def check_displacement(report: dict, mu: float, top_stratum: int, lip: Callable[[float], float],
                       growth: list[list[float]], tol: float) -> None:
    expect(close(report["top_eigenvalue"], mu, EIG_TOL), f"top eigenvalue {report['top_eigenvalue']!r}")
    expect(report["top_stratum"] == top_stratum, f"top stratum {report['top_stratum']}")
    check_sweep_rows([{"N": r["N"], "lipschitz": r["lip"]} for r in report["lipschitz"]], lip, EIG_TOL)
    expect(close(report["upper"], min(lip(n) for n in report["n_grid"]), EIG_TOL), "upper side")
    expect(1.0 <= report["lower"] <= report["upper"] * (1 + 1e-9), "lower side above upper side")
    expect(len(report["growth"]) == len(growth), "one growth report per hyperbolic sample word")
    for rpt, expected in zip(report["growth"], growth):
        check_growth_values(rpt["values"], expected, tol)


# -- free-group arithmetic for find_r_legal_hyperbolic, apart from the program ---------


def _free_reduce(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for x in letters:
        if out and out[-1] == (x[0], -x[1]):
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == (out[-1][0], -out[-1][1]):
        out = out[1:-1]
    return out


def _apply_free(images: list[list[int]], letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    for j, s in letters:
        img = [(i, 1) for i in images[j]]
        out += img if s == 1 else [(i, -1) for i, _ in reversed(img)]
    return _free_reduce(out)


def check_legal_element(n: int, word, steps: int = 6) -> None:
    """The stratum length of ``w alpha^k`` (cyclically reduced) is ``mu^k`` times that of w."""
    expect(all(tag == FREE_SYLLABLE for tag, _, _ in word.syllables), "element has factor syllables")
    images = [[int(x[1:]) - 1 for x in img] for img in fam.chord_rose_images(n)]
    weights = chord_weights(n)
    mu = chord_mu(n)
    letters = _free_reduce([(j, s) for _, j, s in word.syllables])
    expect(bool(letters), "element is not hyperbolic")
    base = sum(weights[j] for j, _ in letters)
    for k in range(1, steps + 1):
        letters = _apply_free(images, letters)
        got = sum(weights[j] for j, _ in letters)
        expect(close(got / base, mu**k, LEN_TOL), f"stratum length does not scale by mu^{k}")


def find_legal(path: str):
    """find_r_legal_hyperbolic on stratum 1, as a library user calls it."""
    from outgrowth.document import parse_document
    from outgrowth.graph_map import verify_representative
    from outgrowth.legality import find_r_legal_hyperbolic

    doc = parse_document(Path(path).read_text(), name=Path(path).name)
    if verify_representative(doc.representative):
        raise RuntimeError("representative failed verification")
    return find_r_legal_hyperbolic(doc.representative, 1)


# -- orbit ------------------------------------------------------------------------------


ORBIT_CHORDS = {3: [3, 3, 2], 4: [2, 2, 2, 2], 5: [2, 2, 2, 1, 1]}  # letter counts per word
ORBIT_TARGET = 60_000  # syllables at the last iterate of each chord-rose orbit
GOLDEN = [["a2"], ["a1", "a2"]]  # golden_ratio_rose with a, b as a1, a2


def _golden_counts(word: list[str], iterations: int) -> list[list[int]]:
    return fam.orbit_counts(GOLDEN, word, iterations)


def orbit(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    fib = fam.fibonacci
    ops = [
        command("growth golden b tree", ["growth", "golden_ratio_rose", "--element", "b", "--iterations", "27"],
                lambda r: check_growth_values(r["values"], [fib(k + 2) for k in range(28)])),
        command("growth golden b relative",
                ["growth", "golden_ratio_rose", "--element", "b", "--iterations", "27", "--length", "relative"],
                lambda r: check_growth_values(r["values"], [fib(k + 2) for k in range(28)])),
        command("growth c2f2 P:1 a", ["growth", "c2f2_mixed", "--element", "P:1 a", "--iterations", "25"],
                lambda r: check_growth_values(r["values"], [1 + fib(k + 1) for k in range(26)])),
    ]
    # PF metric of the golden map: a -> 1/phi, b -> 1 (the spoke of c2f2_mixed is its own stratum)
    golden_w = (1 / PHI, 1.0)
    ops.append(command(
        "bound c2f2 a", ["bound", "c2f2_mixed", "--element", "a", "--iterations", "25"],
        lambda r: check_bound(r, [weighted(c, golden_w) for c in _golden_counts(["a1"], 25)], LEN_TOL)))
    ops.append(command(
        "displacement golden", ["displacement", "golden_ratio_rose", "--sample", "b,a b", "--iterations", "23"],
        lambda r: check_displacement(
            r, PHI, 1, lambda N: PHI,
            [[weighted(c, golden_w) for c in _golden_counts(w, 23)] for w in (["a2"], ["a1", "a2"])], LEN_TOL)))
    for n, counts in ORBIT_CHORDS.items():
        path = out_dir / f"chord{n}.gog"
        path.write_text(fam.chord_rose(n))
        images = fam.chord_rose_images(n)
        word = fam.random_positive_word(rng, counts)
        lengths = fam.orbit_lengths(images, word, 200)
        k = max(i for i, x in enumerate(lengths) if x <= ORBIT_TARGET)
        ops.append(command(
            f"growth chord{n} random word",
            ["growth", str(path), "--element", " ".join(word), "--iterations", str(k)],
            functools.partial(lambda r, e: check_growth_values(r["values"], e), e=lengths[: k + 1])))
    return ops


# -- spectral ---------------------------------------------------------------------------


SPECTRAL_CHORDS = (25, 50, 100)
SPECTRAL_TOWERS = (50, 100)
TOWER_ITERATIONS = 12  # a_i grows like a sum of binomials C(k, j), j < i: at most 2^12 here
# No displacement on towers: over so few iterations an orbit of a_i, i > k, doubles at
# every step, the program accepts the estimate 2 as converged and reports a lower side
# above the upper one, for some seeds only.
OVERFLOW_TOWER = 110  # N^r leaves the float range at N = 1000 from r = 103 on


def _letters(n: int, indices: tuple[int, ...]) -> list[int]:
    """Letter counts with one each of a_i, i in indices: the seed then only orders them."""
    return [int(i in indices) for i in range(1, n + 1)]


def spectral(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in SPECTRAL_CHORDS:
        path = str(out_dir / f"chord{n}.gog")
        Path(path).write_text(fam.chord_rose(n))
        images = fam.chord_rose_images(n)
        sample = [fam.random_positive_word(rng, _letters(n, (1, n // 2, n))),
                  fam.random_positive_word(rng, _letters(n, (2, 3, n - 1)))]
        element = fam.random_positive_word(rng, _letters(n, (1, 2, n // 2, n)))

        def analyze_check(r, n=n):
            mu = chord_mu(n)
            expect(len(r["strata"]) == 1 and r["top_stratum"] == 1, "chord rose has one stratum")
            expect(close(r["top_eigenvalue"], mu, EIG_TOL), f"top eigenvalue {r['top_eigenvalue']!r}, expected {mu!r}")
            turns = r["legality"]
            expect(len(turns) == n * (2 * n + 1), f"{len(turns)} turns, expected {n * (2 * n + 1)}")
            degenerate = [t for t in turns if t["degenerate"]]
            expect(len(degenerate) == 2 * n and not any(t["legal"] for t in degenerate), "degenerate turns")

        def weighted_orbit(word, n=n, images=images):
            return [weighted(c, chord_weights(n)) for c in fam.orbit_counts(images, word, 20)]

        ops += [
            command(f"analyze chord{n}", ["analyze", path], analyze_check),
            command(f"sweep chord{n}", ["sweep", path, "--n-grid", LONG_GRID],
                    lambda r, n=n: check_sweep_rows(r["rows"], lambda N: chord_mu(n), EIG_TOL)),
            command(f"displacement chord{n}",
                    ["displacement", path, "--sample", ",".join(" ".join(s) for s in sample)],
                    lambda r, n=n, f=weighted_orbit, sample=sample: check_displacement(
                        r, chord_mu(n), 1, lambda N: chord_mu(n), [f(s) for s in sample], LEN_TOL)),
            command(f"bound chord{n}", ["bound", path, "--element", " ".join(element)],
                    lambda r, f=weighted_orbit, element=element: check_bound(r, f(element), LEN_TOL)),
            Op(f"find_r_legal_hyperbolic chord{n}", [], functools.partial(check_legal_element, n),
               library=functools.partial(find_legal, path)),
        ]
    for n in SPECTRAL_TOWERS:
        path = str(out_dir / f"tower{n}.gog")
        Path(path).write_text(fam.tower(n))
        images = fam.tower_images(n)
        element = fam.random_positive_word(rng, _letters(n, (1, n // 2, n - 1, n)))

        def tower_analyze_check(r, n=n):
            expect(len(r["strata"]) == n, f"{len(r['strata'])} strata, expected {n}")
            expect(all(s["eigenvalue"] == 1.0 for s in r["strata"]), "tower eigenvalues are all 1")
            expect(r["top_stratum"] == n and r["top_eigenvalue"] == 1.0, "tower top stratum")
            expect(len(r["legality"]) == n * (2 * n + 1), "turn count")

        ops += [
            command(f"analyze tower{n}", ["analyze", path], tower_analyze_check),
            command(f"sweep tower{n}", ["sweep", path, "--n-grid", LONG_GRID],
                    lambda r: check_sweep_rows(r["rows"], lambda N: (N + 1) / N, 1e-12)),
            command(f"bound tower{n}",
                    ["bound", path, "--element", " ".join(element), "--iterations", str(TOWER_ITERATIONS)],
                    lambda r, images=images, element=element: check_bound(
                        r, fam.orbit_lengths(images, element, TOWER_ITERATIONS), 0.0)),
        ]
    # fails today: rescale_family raises OverflowError on float(N) ** r at N = 1000
    path = str(out_dir / f"tower{OVERFLOW_TOWER}.gog")
    Path(path).write_text(fam.tower(OVERFLOW_TOWER))
    ops.append(command(f"sweep tower{OVERFLOW_TOWER} default grid", ["sweep", path],
                       lambda r: check_sweep_rows(r["rows"], lambda N: (N + 1) / N, 1e-12)))
    return ops


# -- rtt --------------------------------------------------------------------------------


def rose_paths(petals: int, bound: int) -> int:
    """Reduced nonempty paths of at most ``bound`` darts in a rose: the injectivity search space."""
    return sum(2 * petals * (2 * petals - 1) ** (length - 1) for length in range(1, bound + 1))


def check_c2f2_rtt(r: dict, bound: int, count_paths: bool = True) -> None:
    expect(r["train_track"]["ok"] is True, "c2f2_mixed is a train track")
    rows = r["relative_train_track"]
    expect([row["stratum"] for row in rows] == [1, 2], "two strata")
    expect(all(row["ok"] and row["injectivity_ok"] for row in rows), "every stratum passes")
    if count_paths:
        expect(rows[1]["paths_checked"] == rose_paths(2, bound), "paths checked on stratum 2")


def check_tower_rtt(r: dict, n: int, bound: int) -> None:
    expect(r["train_track"]["ok"] is True, "towers are train tracks")
    rows = r["relative_train_track"]
    expect([row["stratum"] for row in rows] == list(range(1, n + 1)), "one stratum per petal")
    expect(rows[0]["ok"] is True, "stratum 1 passes")
    for row in rows[1:]:
        expect(row["germs_ok"] is False and row["legality_ok"] is True and row["injectivity_ok"] is True,
               f"stratum {row['stratum']} should fail on germs only")
        expect(row["paths_checked"] == rose_paths(row["stratum"] - 1, bound),
               f"paths checked on stratum {row['stratum']}")


def rtt(seed: int, out_dir: Path) -> list[Op]:
    ops = [command("verify c2f2 bound 10", ["verify", "c2f2_mixed", "--rtt-bound", "10"],
                   lambda r: check_c2f2_rtt(r, 10))]
    for n, bound in ((3, 10), (4, 7)):
        path = out_dir / f"tower{n}.gog"
        path.write_text(fam.tower(n))
        ops.append(command(f"verify tower{n} bound {bound}", ["verify", str(path), "--rtt-bound", str(bound)],
                           functools.partial(lambda r, n, b: check_tower_rtt(r, n, b), n=n, b=bound)))
    # fails today (exit 3): the path enumeration gives up at its 200,000-path cap
    ops.append(command("verify c2f2 bound 12", ["verify", "c2f2_mixed", "--rtt-bound", "12"],
                       lambda r: check_c2f2_rtt(r, 12, count_paths=False)))
    return ops


# -- cli --------------------------------------------------------------------------------


CLI_ELEMENTS = {"golden_ratio_rose": "b", "polynomial_rose": "b", "c3c3_swap": "P:1 Q:1",
                "c2f2_mixed": "P:1 a"}
CLI_MU = {"golden_ratio_rose": PHI, "polynomial_rose": 1.0, "c3c3_swap": 1.0, "c2f2_mixed": PHI}
CLI_TOP_STRATUM = {"golden_ratio_rose": 1, "polynomial_rose": 2, "c3c3_swap": 1, "c2f2_mixed": 1}


def _cli_lipschitz(name: str) -> Callable[[float], float]:
    if name == "polynomial_rose":
        return lambda N: (N + 1) / N
    return lambda N: CLI_MU[name]


def _cli_growth(name: str, iterations: int) -> list[float]:
    fib = fam.fibonacci
    return {
        "golden_ratio_rose": [fib(k + 2) for k in range(iterations + 1)],
        "polynomial_rose": [k + 1 for k in range(iterations + 1)],
        "c3c3_swap": [2.0] * (iterations + 1),  # four half-length spokes, conjugate to itself
        "c2f2_mixed": [1 + fib(k + 1) for k in range(iterations + 1)],
    }[name]


def _check_cli_analyze(r: dict, name: str) -> None:
    expect(close(r["top_eigenvalue"], CLI_MU[name], EIG_TOL), "top eigenvalue")
    expect(r["top_stratum"] == CLI_TOP_STRATUM[name], "top stratum")


def _check_cli_verify(r: dict, name: str) -> None:
    rows = r["relative_train_track"]
    expect(r["train_track"]["ok"] is True, "every bundled map is a train track")
    expect(all(row["injectivity_ok"] is not False for row in rows), "injectivity")
    if name == "polynomial_rose":
        expect(rows[0]["ok"] and rows[1]["germs_ok"] is False and rows[1]["legality_ok"], "tower verdicts")
    else:
        expect(all(row["ok"] for row in rows), "every stratum passes")


def _check_cli_bound(r: dict) -> None:
    expect(r["ok"] is True, "bound check did not report ok")


def _check_cli_displacement(r: dict, name: str) -> None:
    lip = _cli_lipschitz(name)
    expect(close(r["top_eigenvalue"], CLI_MU[name], EIG_TOL), "top eigenvalue")
    expect(close(r["upper"], min(lip(n) for n in r["n_grid"]), EIG_TOL), "upper side")
    expect(1.0 <= r["lower"] <= r["upper"] * (1 + 1e-9), "lower side above upper side")


def cli(seed: int, out_dir: Path) -> list[Op]:
    ops = []
    for name in FIXTURES:
        element = CLI_ELEMENTS[name]
        ops += [
            command(f"analyze {name}", ["analyze", name], functools.partial(_check_cli_analyze, name=name)),
            command(f"growth {name}", ["growth", name, "--element", element],
                    lambda r, name=name: check_growth_values(r["values"], _cli_growth(name, 20))),
            command(f"displacement {name}", ["displacement", name],
                    functools.partial(_check_cli_displacement, name=name)),
            command(f"verify {name}", ["verify", name], functools.partial(_check_cli_verify, name=name)),
            command(f"bound {name}", ["bound", name, "--element", element], _check_cli_bound),
            command(f"sweep {name}", ["sweep", name],
                    lambda r, name=name: check_sweep_rows(r["rows"], _cli_lipschitz(name), EIG_TOL)),
        ]
    return ops


WORKLOADS = {"orbit": orbit, "spectral": spectral, "rtt": rtt, "cli": cli}
