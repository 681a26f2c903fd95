"""The three workloads: job streams generated from a seed, each with its oracle.

A job is one in-process call to ``tablemech.cli.main(argv)`` with stdout
captured, or one public library call.  Every job carries a check that runs
as soon as the job returns, untimed, and raises ``Mismatch`` when the output
is wrong.  The checks are independent of the code path the job exercised:
closed forms computed here, a different library routine, or a replay of the
output.

Sizes come from stratified draws over continuous ranges: a cycle holds one
draw from each of m equal strata, so every cycle costs about the same while
no two jobs need share a size.  File-backed jobs (``simulate``, ``audit``)
use a pool written at set-up and revisit it each cycle in a new order;
``simulate`` draws a fresh Monte Carlo seed for every job, so no two of its
jobs are the same call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from tablemech import analytic, audit, cli, core, evaluation, regimes, search, serialize
from tablemech import dynamics

FOUR_SIGMA = 4.0


class Mismatch(AssertionError):
    """An output disagrees with its oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


@dataclass
class CliOutput:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    cycle: int = 0  # which pass over the mix
    slot: int = 0  # place in the mix, the same job kind and size stratum every cycle


def run_cli(argv: list[str]) -> CliOutput:
    """One in-process CLI invocation; ``cli.main`` is looked up per call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliOutput(rc, out.getvalue(), err.getvalue())


def cli_job(kind: str, argv: list[str], check: Callable, rc: int = 0) -> Job:
    def checked(out: CliOutput) -> None:
        expect(out.rc == rc, f"{argv}: exit code {out.rc}, wanted {rc}: {out.stderr.strip()}")
        check(out.stdout)

    return Job(kind, lambda: run_cli(argv), checked)


def strata(rng, lo: float, hi: float, m: int, *, log: bool = False, jitter: bool = True) -> np.ndarray:
    """One draw from each of m equal strata of [lo, hi] (of log space if ``log``)."""
    u = (np.arange(m) + (rng.random(m) if jitter else 0.5)) / m
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def istrata(rng, lo, hi, m, **kw) -> list[int]:
    return [int(round(x)) for x in strata(rng, lo, hi, m, **kw)]


def mc_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def csv_rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


# -- closed forms computed here, independent of the package ----------------------


def phi_closed(n: int, c: float) -> float:
    return n * (1.0 - c) * (1.0 - c + c**n) - (1.0 - c**n)


def eu_closed(n: int, c):
    """Common-cutoff expected profit, 1/2 + (c/2)(1 - (1 - c^n)/(n(1 - c)))."""
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(c < 1.0, (1.0 - c**n) / (n * (1.0 - c)), 1.0)
    return 0.5 + 0.5 * c * (1.0 - g)


_EU_GRID = np.linspace(0.0, 1.0, 4001)


def check_static_optimum(n: int, value: float) -> None:
    """``value`` is the optimal common-cutoff EU: at least the grid maximum, barely above it."""
    if n < 2:
        expect(value == 0.5, f"n={n}: static {value} != 1/2")
        return
    best = float(np.max(eu_closed(n, _EU_GRID)))
    expect(best - 1e-11 <= value <= best + 1e-5, f"n={n}: static {value} vs grid max {best}")


def dynamic_first_cutoff(n: int) -> float:
    c = 0.0
    for _ in range(n - 1):
        c = c + 0.5 * (1.0 - c) ** 3
    return c


def dynamic_value(n: int) -> float:
    c1 = dynamic_first_cutoff(n)
    return c1 + 0.5 * (1.0 - c1) ** 3


def agent_payoff_closed(full_cutoffs: np.ndarray) -> float:
    """E[m/(m+1)], m = 1 + on-table non-default projects (Poisson-binomial)."""
    dist = np.array([1.0])
    for c in full_cutoffs[:-1]:
        dist = np.convolve(dist, [c, 1.0 - c])
    m = np.arange(1, dist.size + 1)
    return float((dist * m / (m + 1)).sum())


_S = np.linspace(0.0, 2.0, 200_001)


def max_surplus_sd(n: int) -> float:
    """Standard deviation of max_i (p_i + a_i), each sum triangular on [0, 2]."""
    cdf = np.where(_S <= 1.0, 0.5 * _S**2, 1.0 - 0.5 * (2.0 - _S) ** 2)
    tail = 1.0 - cdf**n
    mean = np.trapezoid(tail, _S)
    second = np.trapezoid(2.0 * _S * tail, _S)
    return math.sqrt(max(second - mean * mean, 0.0))


def pair_count(n: int, k: int) -> int:
    """(truth, feasible report) pairs of an exhaustive no-overselling audit."""
    return (k**n) ** 2 * (k * (k + 1) // 2) ** n


def within_sigma(what: str, mean: float, std_error: float, expected: float) -> None:
    expect(std_error > 0.0, f"{what}: standard error {std_error}")
    expect(abs(mean - expected) <= FOUR_SIGMA * std_error,
           f"{what}: {mean} is {abs(mean - expected) / std_error:.2f} sigma from {expected}")


# -- decision arrays built here, not by the package -------------------------------


def lattice(n: int, k: int) -> np.ndarray:
    axes = np.meshgrid(*([np.linspace(0.0, 1.0, k)] * n), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def argmax_decisions(masks: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """dec[r, c] = lowest-index argmax of payoffs vals[c] over on-table masks[r]."""
    return np.argmax(np.where(masks[:, None, :], vals[None, :, :], -np.inf), axis=2)


def cutoff_masks(vals: np.ndarray, full_cutoffs: np.ndarray, reversed_: bool) -> np.ndarray:
    """On-table masks per profit point; reversed puts i on iff p_i <= c_i (not IC)."""
    masks = vals <= full_cutoffs if reversed_ else vals >= full_cutoffs - 1e-12
    masks[:, -1] = True
    return masks


def reversed_grid(n: int, k: int, cutoffs: np.ndarray) -> evaluation.GridMechanism:
    vals = lattice(n, k)
    dec = argmax_decisions(cutoff_masks(vals, np.append(cutoffs, 0.0), True), vals)
    return evaluation.GridMechanism(n, k, dec)


def flipped_grid(rng, n: int, k: int, cutoffs: np.ndarray, flips: int) -> evaluation.GridMechanism:
    """Cutoff table's argmax rule with ``flips`` cells sent to a worse on-table project.

    At a flipped (p, a) the agent gets less than the project its own payoff
    ranks first, which another payoff report at the same p still delivers,
    so the result is never incentive compatible.
    """
    vals = lattice(n, k)
    masks = cutoff_masks(vals, np.append(cutoffs, 0.0), False)
    dec = argmax_decisions(masks, vals)
    done = 0
    while done < flips:
        r, c = rng.integers(0, vals.shape[0], size=2)
        on = np.flatnonzero(masks[r])
        worst = on[np.argmin(vals[c, on])]
        if vals[c, worst] < vals[c, dec[r, c]]:
            dec[r, c] = worst
            done += 1
    return evaluation.GridMechanism(n, k, dec)


def table_from_cutoffs(cutoffs, k: int) -> core.TableMechanismGrid:
    return core.TableMechanismGrid(core.CutoffVector(cutoffs).indicator_grid(k))


# -- workloads ------------------------------------------------------------------------


class Workload:
    """Seeded set-up plus an endless seeded job stream."""

    name = ""
    number = 0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.number, stream])

    def setup(self) -> None:
        """Generate inputs and write any files; the same seed writes the same bytes."""

    def warmup(self) -> Job:
        raise NotImplementedError

    def cycle(self, rng) -> list[Job]:
        raise NotImplementedError

    def jobs(self) -> Iterator[Job]:
        rng = self.rng(1)
        for number in itertools.count():
            batch = self.cycle(rng)
            for i in rng.permutation(len(batch)):
                batch[i].cycle, batch[i].slot = number, int(i)
                yield batch[i]


class Solve(Workload):
    """Closed-form optimal cutoffs: the CLI solvers and the O(n^3) decision probabilities."""

    name = "solve"
    number = 1

    def warmup(self) -> Job:
        return self.optimize(60)

    def optimize(self, n: int) -> Job:
        def check(text: str) -> None:
            res = json.loads(text)
            c = res["cutoff"]
            expect(abs(res["residual"]) <= 1e-8, f"n={n}: residual {res['residual']}")
            pitch = 1.0 / (_EU_GRID.size - 1)
            scan = analytic.grid_scan_argmax(n, _EU_GRID.size)
            expect(abs(scan - c) <= pitch * (1 + 1e-9), f"n={n}: cutoff {c} vs grid argmax {scan}")
            expect(abs(res["expected_utility"] - float(eu_closed(n, c))) <= 1e-9,
                   f"n={n}: eu {res['expected_utility']} at cutoff {c}")

        return cli_job("cli.optimize", ["optimize", "--n", str(n)], check)

    def sweep(self, lo: int, hi: int) -> Job:
        def check(text: str) -> None:
            rows = csv_rows(text)
            expect([int(r["n"]) for r in rows] == list(range(lo, hi + 1)), "sweep rows")
            for r in rows:
                n, c = int(r["n"]), r["cutoff"]
                expect(phi_closed(n, c - 1e-7) > 0.0 > phi_closed(n, c + 1e-7),
                       f"n={n}: {c} is not the root of phi")
                expect(abs(r["eu"] - float(eu_closed(n, c))) <= 1e-9, f"n={n}: eu {r['eu']}")
                expect(abs(r["sqrtn_times_gap"] - math.sqrt(n) * (1 - c)) <= 1e-9, f"n={n}: gap")

        return cli_job("cli.sweep", ["sweep", "--n-min", str(lo), "--n-max", str(hi)], check)

    def dynamics_table(self, lo: int, hi: int) -> Job:
        def check(text: str) -> None:
            rows = csv_rows(text)
            expect([int(r["n"]) for r in rows] == list(range(lo, hi + 1)), "dynamics rows")
            for r in rows:
                n = int(r["n"])
                expect(abs(r["c1"] - dynamic_first_cutoff(n)) <= 1e-10, f"n={n}: c1 {r['c1']}")
                expect(abs(r["dynamic"] - dynamic_value(n)) <= 1e-10, f"n={n}: dynamic")
                check_static_optimum(n, r["static"])

        return cli_job("cli.dynamics", ["dynamics", "--n-min", str(lo), "--n-max", str(hi)], check)

    def prob_decision(self, cuts: np.ndarray) -> Job:
        cv = core.CutoffVector(cuts)

        def check(p) -> None:
            expect(p.shape == (cv.n_projects,), f"shape {p.shape}")
            expect(bool(np.all((p >= -1e-12) & (p <= 1 + 1e-12))), "probability outside [0, 1]")
            expect(abs(p.sum() - 1.0) <= 1e-9, f"n={cv.n_projects}: probabilities sum to {p.sum()}")

        return Job("lib.prob_decision", lambda: analytic.prob_decision(cv), check)

    def multi_hetero(self, cuts: np.ndarray) -> Job:
        cv = core.CutoffVector(cuts)
        n = cv.n_projects

        def check(eu: float) -> None:
            best = analytic.optimal_single_cutoff(n).expected_utility
            expect(0.5 - 1e-12 <= eu <= best + 1e-12, f"n={n}: eu {eu} beats the common optimum {best}")

        return Job("lib.multi_cutoff_eu", lambda: analytic.multi_cutoff_eu(cv), check)

    def multi_common(self, n: int, c: float) -> Job:
        cv = core.CutoffVector.single(n, c)

        def check(eu: float) -> None:
            ref = analytic.single_cutoff_eu(n, c)
            expect(abs(eu - ref) <= 1e-10, f"n={n} c={c}: multi {eu} vs single {ref}")

        return Job("lib.multi_cutoff_eu.common", lambda: analytic.multi_cutoff_eu(cv), check)

    def single_cutoff(self, n: int, cs: np.ndarray) -> Job:
        def check(eu) -> None:
            expect(eu.shape == cs.shape, f"shape {eu.shape}")
            err = float(np.max(np.abs(eu - eu_closed(n, cs))))
            expect(err <= 1e-9, f"n={n}: single_cutoff_eu off the closed form by {err}")

        return Job("lib.single_cutoff_eu", lambda: analytic.single_cutoff_eu(n, cs), check)

    def perturbation(self, n: int, base: float, t: float, i: int, j: int) -> Job:
        def check(pair) -> None:
            expect(abs(pair[0] - pair[1]) <= 1e-10, f"n={n}: perturbation {pair} not even")

        return Job("lib.symmetry_in_perturbation",
                   lambda: analytic.symmetry_in_perturbation(n, base, t, i, j), check)

    def lattice_scan(self, m: int) -> Job:
        def check(res) -> None:
            best = analytic.optimal_single_cutoff(3).expected_utility
            expect(0.5 <= res[0] <= best + 1e-12, f"m={m}: lattice best {res[0]} > {best}")

        return Job("lib.heterogeneous_cutoff_scan",
                   lambda: analytic.heterogeneous_cutoff_scan(3, m), check)

    def cycle(self, rng) -> list[Job]:
        t = self.tiny
        big = 30 if t else 150
        jobs = [self.optimize(n) for n in istrata(rng, 2, 1000, 12, log=True)]
        for lo, span in zip(rng.integers(2, 200, 6), istrata(rng, 5, 80, 6)):
            jobs.append(self.sweep(int(lo), int(lo) + span - 1))
        for lo, span in zip(istrata(rng, 1, 150, 6), istrata(rng, 5, 60, 6)[::-1]):
            jobs.append(self.dynamics_table(lo, lo + span - 1))
        for n in istrata(rng, 20, big, 8, log=True, jitter=False):
            jobs.append(self.prob_decision(rng.uniform(0.2, 0.98, n - 1)))
        for n in istrata(rng, 20, big, 4, log=True, jitter=False):
            jobs.append(self.multi_hetero(rng.uniform(0.2, 0.98, n - 1)))
        for n in istrata(rng, 23, big - 3, 4, log=True, jitter=False):
            jobs.append(self.multi_common(n, float(rng.uniform(0.3, 0.99))))
        for n, m in zip(istrata(rng, 2, 1000, 4, log=True),
                        istrata(rng, 1e3, 1e5, 4, log=True, jitter=False)):
            jobs.append(self.single_cutoff(n, rng.uniform(0.0, 0.999, m)))
        for n in istrata(rng, 10, 20 if t else 60, 2, jitter=False):
            base = float(rng.uniform(0.3, 0.7))
            i, j = rng.choice(np.arange(1, n), size=2, replace=False)
            jobs.append(self.perturbation(n, base, float(rng.uniform(0, min(base, 1 - base))),
                                          int(i), int(j)))
        for m in istrata(rng, 4 if t else 8, 8 if t else 40, 2, jitter=False):
            jobs.append(self.lattice_scan(m))
        return jobs


@dataclass
class SimEntry:
    """One simulate file and the arguments its jobs use."""

    path: Path
    n: int
    full_cutoffs: np.ndarray
    samples: int
    agent: bool
    _expected: float | None = None

    def expected(self) -> float:
        if self._expected is None:
            if self.agent:
                self._expected = agent_payoff_closed(self.full_cutoffs)
            else:
                cv = core.CutoffVector(self.full_cutoffs[:-1])
                self._expected = analytic.multi_cutoff_eu(cv)
        return self._expected


class Simulate(Workload):
    """Monte Carlo: Philox draws, the decide step and the on-grid table gather."""

    name = "simulate"
    number = 2

    def setup(self) -> None:
        rng = self.rng(0)
        t = self.tiny
        lo_s, hi_s = (2**12, 2**14) if t else (2**18, 2**20)
        self.entries: list[SimEntry] = []
        specs = []  # (n, full cutoffs, table k or None, agent)
        for agent, count in ((False, 10), (True, 4)):
            for n in istrata(rng, 2, 12 if t else 50, count, log=True, jitter=False):
                specs.append((n, np.append(rng.uniform(0.3, 0.95, n - 1), 0.0), None, agent))
        tables = [(2, 41), (3, 13), (4, 7), (5, 5), (2, 61), (3, 9), (4, 6), (2, 21)]
        for idx, (n, k) in enumerate(tables):
            j = rng.integers(1, k - 1, n - 1)
            specs.append((n, np.append(j / (k - 1), 0.0), k, idx >= 6))
        # fixed pairing of sizes with sample counts keeps the cost mix seed-free
        samples = istrata(rng, lo_s, hi_s, len(specs), log=True, jitter=False)
        order = np.argsort([(i * 7) % len(specs) for i in range(len(specs))])
        for i, (n, full, k, agent) in enumerate(specs):
            path = self.workdir / f"sim{i:02d}.json"
            mech = core.CutoffVector(full[:-1]) if k is None else table_from_cutoffs(full[:-1], k)
            serialize.save_mechanism(mech, path)
            self.entries.append(SimEntry(path, n, full, samples[order[i]], agent))
        self.lib = []  # (job kind, its arguments but the Monte Carlo seed)
        for n, s in zip(istrata(rng, 3, 40, 3, jitter=False),
                        istrata(rng, lo_s, hi_s, 3, log=True, jitter=False)):
            self.lib.append(("sequential", n, s))
        for n, s in zip(istrata(rng, 2, 30, 3, jitter=False),
                        istrata(rng, lo_s, hi_s, 3, log=True, jitter=False)[::-1]):
            self.lib.append(("transfers", n, s))
        for lo, span, s in zip(istrata(rng, 2, 8, 2, jitter=False), (3, 5),
                               istrata(rng, lo_s // 4, hi_s // 4, 2, log=True, jitter=False)):
            self.lib.append(("compare", lo, lo + span - 1, s))

    def warmup(self) -> Job:
        return self.simulate(self.entries[len(self.entries) // 2], mc_seed(self.rng(2)))

    def simulate(self, e: SimEntry, seed: int) -> Job:
        argv = ["simulate", str(e.path), "--samples", str(e.samples), "--seed", str(seed)]
        if e.agent:
            argv.append("--agent")

        def check(text: str) -> None:
            res = json.loads(text)
            expect(res["n_samples"] == e.samples and res["seed"] == seed, "provenance")
            within_sigma(f"{e.path.name} agent={e.agent}", res["mean"], res["std_error"], e.expected())

        return cli_job("cli.simulate.agent" if e.agent else "cli.simulate", argv, check)

    def compare(self, lo: int, hi: int, samples: int, seed: int) -> Job:
        argv = ["compare", "--n-min", str(lo), "--n-max", str(hi),
                "--samples", str(samples), "--seed", str(seed)]

        def check(text: str) -> None:
            rows = csv_rows(text)
            expect([int(r["n"]) for r in rows] == list(range(lo, hi + 1)), "compare rows")
            for r in rows:
                n = int(r["n"])
                expect(r["no_verif"] == 0.5, f"n={n}: no_verif {r['no_verif']}")
                expect(abs(r["dynamic"] - dynamic_value(n)) <= 1e-10, f"n={n}: dynamic")
                check_static_optimum(n, r["static"])
                sd = max_surplus_sd(n) / math.sqrt(samples)
                within_sigma(f"compare n={n} transfers", r["transfers"], sd,
                             regimes.expected_max_surplus(n))

        return cli_job("cli.compare", argv, check)

    def sequential(self, n: int, samples: int, seed: int) -> Job:
        def check(est) -> None:
            within_sigma(f"sequential n={n}", est.mean, est.std_error, dynamics.dynamic_profit(n))

        return Job("lib.sequential_profit_estimate",
                   lambda: dynamics.sequential_profit_estimate(n, samples, seed), check)

    def transfers(self, n: int, samples: int, seed: int) -> Job:
        def check(res) -> None:
            fee = regimes.expected_max_surplus(n)
            expect(res.fee == fee, f"n={n}: fee {res.fee} != {fee}")
            within_sigma(f"transfers n={n}", res.principal.mean, res.principal.std_error, fee)

        return Job("lib.transfers_eu", lambda: regimes.transfers_eu(n, samples, seed), check)

    def cycle(self, rng) -> list[Job]:
        jobs = [self.simulate(e, mc_seed(rng)) for e in self.entries]
        for kind, *args in self.lib:
            jobs.append(getattr(self, kind)(*args, mc_seed(rng)))
        return jobs


@dataclass
class AuditEntry:
    path: Path
    n: int
    k: int
    ic: bool
    argv_extra: list
    grid: evaluation.GridMechanism | None = None


class Audit(Workload):
    """Exhaustive IC audits, table search and extraction on dense tables."""

    name = "audit"
    number = 3

    def setup(self) -> None:
        rng = self.rng(0)
        t = self.tiny
        self.entries: list[AuditEntry] = []
        ic_specs = [(2, k) for k in istrata(rng, 5 if t else 21, 9 if t else 61, 10, jitter=False)]
        ic_specs += [(3, k) for k in istrata(rng, 3 if t else 7, 5 if t else 13, 6, jitter=False)]
        for i, (n, k) in enumerate(ic_specs):
            cuts = rng.uniform(0.1, 0.9, n - 1)
            path = self.workdir / f"ic{i:02d}.json"
            if i % 2:
                serialize.save_mechanism(table_from_cutoffs(cuts, k), path)
                extra = []
            else:
                serialize.save_mechanism(core.CutoffVector(cuts), path)
                extra = ["--grid", str(k)]
            self.entries.append(AuditEntry(path, n, k, True, extra))
        reversed_specs = [(2, 4), (3, 3)] if t else [(2, 11), (2, 19), (3, 5), (3, 6)]
        flipped_specs = [(2, 5), (3, 3)] if t else [(2, 15), (2, 23), (3, 6), (3, 7)]
        for i, (n, k) in enumerate(reversed_specs + flipped_specs):
            cuts = rng.uniform(0.2, 0.8, n - 1)
            if i < len(reversed_specs):
                gm = reversed_grid(n, k, cuts)
            else:
                gm = flipped_grid(rng, n, k, cuts, flips=3)
            path = self.workdir / f"bad{i:02d}.json"
            serialize.save_mechanism(gm, path)
            self.entries.append(AuditEntry(path, n, k, False, [], gm))

    def warmup(self) -> Job:
        return self.audit(self.entries[3])

    def audit(self, e: AuditEntry) -> Job:
        def check(text: str) -> None:
            res = json.loads(text)
            expect(res["verdict"] is e.ic, f"{e.path.name}: verdict {res['verdict']}")
            expect(res["exhaustive"] is True, f"{e.path.name}: not exhaustive")
            expect(res["checked"] == pair_count(e.n, e.k),
                   f"{e.path.name}: checked {res['checked']} != {pair_count(e.n, e.k)}")
            if e.ic:
                expect(res["witness"] is None, f"{e.path.name}: IC verdict with a witness")
                return
            w = res["witness"]
            expect(all(r <= p + 1e-9 for r, p in zip(w["reported_profits"], w["profits"])),
                   f"{e.path.name}: witness report oversells")
            d_true = e.grid.decide(w["profits"], w["payoffs"])
            d_dev = e.grid.decide(w["reported_profits"], w["reported_payoffs"])
            gain = w["payoffs"][d_dev] - w["payoffs"][d_true]
            expect(gain > 0 and abs(gain - w["gain"]) <= 1e-9,
                   f"{e.path.name}: witness replays to gain {gain}, stated {w['gain']}")

        return cli_job("cli.audit", ["audit", str(e.path), *e.argv_extra], check,
                       rc=0 if e.ic else 1)

    def search(self, k: int) -> Job:
        def check(text: str) -> None:
            res = json.loads(text)
            expect(res["is_cutoff_shaped"] is True, f"k={k}: best table is not a cutoff")
            expect(res["n_candidates"] == math.comb(2 * k, k), f"k={k}: candidates")
            rows = np.arange(k)[:, None]
            best = max(search.indicator_eu_exact(np.broadcast_to(rows >= t, (k, k)))
                       for t in range(k))
            expect(Fraction(res["eu_exact"]) == best, f"k={k}: eu {res['eu_exact']} != {best}")

        return cli_job("cli.search", ["search", "--grid", str(k)], check)

    def extract(self, rng, k: int, ic: bool) -> Job:
        cuts = rng.uniform(0.2, 0.8, 1)
        mech = table_from_cutoffs(cuts, k) if ic else reversed_grid(2, k, cuts)

        def check(res) -> None:
            expect(res.ok is ic, f"k={k}: extraction ok={res.ok}, wanted {ic}")
            if ic:
                expect(res.table == mech, f"k={k}: extracted table differs from its source")
            else:
                expect(res.witness is not None, f"k={k}: failed extraction without witness")

        return Job("lib.extract_table_structure",
                   lambda: audit.extract_table_structure(mech), check)

    def menu(self, menu: list, k: int) -> Job:
        def check(ok: bool) -> None:
            expect(ok is True, f"menu {menu} k={k} audited as not IC")

        return Job("lib.menu_mechanism_is_ic",
                   lambda: regimes.menu_mechanism_is_ic(menu, 2, k), check)

    def cycle(self, rng) -> list[Job]:
        t = self.tiny
        jobs = [self.audit(e) for e in self.entries]
        jobs += [self.search(k) for k in istrata(rng, 3 if t else 4, 5 if t else 10, 4, jitter=False)]
        for i, k in enumerate(istrata(rng, 5, 9 if t else 21, 8, jitter=False)):
            jobs.append(self.extract(rng, k, ic=i % 2 == 0))
        for k in istrata(rng, 3 if t else 5, 5 if t else 21, 3, jitter=False):
            menus = ([0], [1], [0, 1])
            jobs.append(self.menu(menus[int(rng.integers(0, 3))], k))
        return jobs


WORKLOADS = {w.name: w for w in (Solve, Simulate, Audit)}
