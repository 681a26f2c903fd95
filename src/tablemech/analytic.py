"""Closed forms for single- and multi-cutoff mechanisms under uniform values.

The principal's expected profit from a common cutoff c across n-1 projects is

    eu(c) = 1/2 + (c/2) * (1 - (1 - c^n) / (n (1 - c)))

and the optimal c solves phi_n(c) = 0 where

    phi_n(c) = n (1-c) (1 - c + c^n) - (1 - c^n).

phi_n has a spurious root at c = 1; the finder brackets the interior root
away from it and bisection does the rest.  Heterogeneous cutoffs go through
the decision probabilities P(default) = int_0^1 prod_j (c_j + (1-c_j) x) dx
and P(i) = (1-c_i) int_0^1 x prod_{j!=i} (c_j + (1-c_j) x) dx: polynomials of
degree <= n-1, which ceil(n/2) Gauss-Legendre nodes integrate exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CutoffVector

__all__ = [
    "OptimalCutoffResult",
    "BracketError",
    "NonUniqueRootError",
    "phi",
    "single_cutoff_eu",
    "prob_decision",
    "multi_cutoff_eu",
    "optimal_single_cutoff",
    "grid_scan_argmax",
    "symmetry_in_perturbation",
    "heterogeneous_cutoff_scan",
]


class BracketError(RuntimeError):
    """No sign change found for phi_n; refusing to return the spurious root 1."""


class NonUniqueRootError(RuntimeError):
    """More than one sign change of phi_n detected on the bracket."""


@dataclass(frozen=True)
class OptimalCutoffResult:
    """Root of the optimality equation and the value it attains.

    ``residual`` is phi_n at the returned cutoff; the bisection bracket width
    bounds the cutoff error and |residual| ~ |phi_n'| * width.
    """

    n_projects: int
    cutoff: float
    expected_utility: float
    residual: float


def phi(n: int, c: float) -> float:
    """The optimality polynomial n(1-c)(1-c+c^n) - (1-c^n)."""
    if n < 2:
        raise ValueError("phi needs n >= 2")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"cutoff {c} outside [0, 1]")
    return _phi(n, c)


def _phi(n: int, c):
    """phi_n without checks; elementwise on arrays."""
    cn = c**n
    return n * (1.0 - c) * (1.0 - c + cn) - (1.0 - cn)


def _geom_mean_factor(n: int, c: np.ndarray) -> np.ndarray:
    """(1 - c^n) / (n (1 - c)), a mean of the geometric sequence 1..c^{n-1}.

    Taken as -expm1(n log c) / (n (1 - c)), which does not cancel as c -> 1;
    exactly 1 at c = 1 and at n = 1, and log 0 = -inf gives 1/n at c = 0.
    """
    d = 1.0 - c
    with np.errstate(divide="ignore"):
        g = -np.expm1(n * np.log(c)) / (n * np.where(d > 0, d, 1.0))
    return np.where((d > 0) & (n > 1), g, 1.0)


def single_cutoff_eu(n: int, c):
    """Expected principal profit of the common-cutoff mechanism.

    Scalar in, scalar out; ndarray in, ndarray out.  n=1 (default only)
    gives 1/2 for every c.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    arr = np.asarray(c, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("cutoff outside [0, 1]")
    eu = 0.5 + 0.5 * arr * (1.0 - _geom_mean_factor(n, arr))
    return float(eu[0]) if scalar else eu


@functools.lru_cache(maxsize=None)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], exact to degree 2q - 1, as (1 - x, w).

    Newton on the Legendre recurrence, weights 2 / ((1 - t^2) P_q'(t)^2) at
    the converged nodes (numpy's leggauss renormalizes them, losing 1e-11).
    """
    t = np.cos(np.pi * (np.arange(1, q + 1) - 0.25) / (q + 0.5))
    step = np.ones(q)
    while True:
        p_prev, p = np.ones(q), t
        for j in range(2, q + 1):
            p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
        dp = q * (t * p - p_prev) / (t * t - 1.0)
        if np.max(np.abs(step)) < 1e-14:  # the step just taken converged t
            break
        step = p / dp
        t = t - step
    u, w = (1.0 - t) / 2.0, 1.0 / ((1.0 - t * t) * dp * dp)
    for shared in (u, w):  # cached, so every caller sees these arrays
        shared.setflags(write=False)
    return u, w


def _choice_probs(cs: np.ndarray) -> np.ndarray:
    """Decision probabilities, (B, n), for a (B, n-1) stack of cutoff vectors.

    Factors are formed as 1 - (1 - c_j)(1 - x), one rounding near x = 1 where
    the integrands peak; leave-one-out products are prefix times suffix.
    """
    u, w = _gauss_legendre(cs.shape[1] // 2 + 1)
    f = 1.0 - (1.0 - cs[:, :, None]) * u
    ones = np.ones((cs.shape[0], 1, u.size))
    pre = np.cumprod(np.concatenate([ones, f], axis=1), axis=1)
    suf = np.cumprod(np.concatenate([ones, f[:, ::-1]], axis=1), axis=1)[:, ::-1]
    chosen = (1.0 - cs) * (pre[:, :-1] * suf[:, 1:] * (w * (1.0 - u))).sum(axis=-1)
    return np.concatenate([chosen, (pre[:, -1] * w).sum(axis=-1)[:, None]], axis=1)


def _choice_eu(cs: np.ndarray) -> np.ndarray:
    """Expected profit per row; a chosen p_i is uniform above c_i."""
    probs = _choice_probs(cs)
    return probs[:, -1] / 2.0 + (probs[:, :-1] * (1.0 + cs) / 2.0).sum(axis=-1)


def prob_decision(cutoffs: CutoffVector) -> np.ndarray:
    """Probability each project is chosen, under uniform values."""
    return _choice_probs(cutoffs.cutoffs[None, :])[0]


def multi_cutoff_eu(cutoffs: CutoffVector) -> float:
    """Expected principal profit of an arbitrary cutoff vector."""
    return float(_choice_eu(cutoffs.cutoffs[None, :])[0])


def optimal_single_cutoff(n: int, tol: float = 1e-12) -> OptimalCutoffResult:
    """Interior root of phi_n by bisection on a verified bracket.

    The bracket starts at [0, 1 - 1/(8n)]: phi_n(0) = n-1 > 0, and the right
    end is pushed toward 1 through candidates 1 - 2^{-j}/n until phi goes
    negative.  c = 1 is always a root of phi_n but never the optimum; the
    bracket construction excludes it structurally, and exhausting the scan
    raises BracketError rather than returning it.  A coarse sign-change scan
    guards the uniqueness assumption and raises NonUniqueRootError if more
    than one crossing shows up.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo = 0.0
    f_lo = phi(n, lo)
    if f_lo <= 0.0:
        raise BracketError(f"phi_{n}(0) = {f_lo} is not positive")
    hi = 1.0 - 1.0 / (8.0 * n)
    f_hi = phi(n, hi)
    j = 1
    while f_hi > 0.0:
        hi = 1.0 - 2.0**-j / n
        if hi >= 1.0:
            raise BracketError(f"no sign change of phi_{n} found left of c=1")
        f_hi = phi(n, hi)
        j += 1
    signs = np.sign(_phi(n, np.linspace(0.0, hi, 33)))
    signs = signs[signs != 0]
    if (signs[1:] != signs[:-1]).sum() > 1:
        raise NonUniqueRootError(f"multiple phi_{n} sign changes on [0, {hi}]")
    if f_hi == 0.0:
        root = hi
    else:
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            f_mid = phi(n, mid)
            if f_mid > 0.0:
                lo = mid
            elif f_mid < 0.0:
                hi = mid
            else:
                lo = hi = mid
        root = 0.5 * (lo + hi)
    value = 0.5 + 0.5 * root * (root - root**n)
    return OptimalCutoffResult(n, root, value, phi(n, root))


def grid_scan_argmax(n: int, m: int) -> float:
    """Argmax of single_cutoff_eu over a uniform m-point grid on [0, 1].

    Independent oracle for the root finder; accuracy is the grid pitch, so
    desk-scale checks want m in the tens of thousands.
    """
    if m < 2:
        raise ValueError("need at least 2 grid points")
    cs = np.linspace(0.0, 1.0, m)
    return float(cs[int(np.argmax(single_cutoff_eu(n, cs)))])


def symmetry_in_perturbation(
    n: int, base: float, t: float, i: int, j: int
) -> tuple[float, float]:
    """EU under opposite perturbations of two cutoffs; must be equal.

    Positions i != j are 1-based into the n-1 non-default cutoffs (matching
    the natural c_1..c_{n-1} naming).  Returns (EU with c_i = base+t and
    c_j = base-t, EU with the signs flipped); their equality is the evenness
    in t that the optimality proof's symmetrization argument rests on.
    """
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1 and i != j):
        raise ValueError(f"positions must be distinct in 1..{n - 1}")
    if not (0.0 <= base + t <= 1.0 and 0.0 <= base - t <= 1.0):
        raise ValueError("base +/- t leaves [0, 1]")
    rows = np.full((2, n - 1), base)
    rows[0, i - 1] = rows[1, j - 1] = base + t
    rows[0, j - 1] = rows[1, i - 1] = base - t
    return tuple(_choice_eu(rows).tolist())


_SCAN_CHUNK = 4096


def heterogeneous_cutoff_scan(n: int, m: int) -> tuple[float, np.ndarray]:
    """Best EU over the full m^(n-1) lattice of heterogeneous cutoff vectors.

    Evidence for single-cutoff optimality beyond n=2: the lattice maximum
    never beats the optimal common cutoff.  Returns (best EU, first best
    vector in lattice order); scans _SCAN_CHUNK vectors at a time, small n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(0.0, 1.0, m)
    best, best_cuts = -math.inf, None
    for start in range(0, m ** (n - 1), _SCAN_CHUNK):
        flat = np.arange(start, min(start + _SCAN_CHUNK, m ** (n - 1)))
        cuts = grid[np.stack(np.unravel_index(flat, (m,) * (n - 1)), axis=1)]
        eu = _choice_eu(cuts)
        top = int(np.argmax(eu))
        if eu[top] > best:
            best, best_cuts = float(eu[top]), cuts[top].copy()
    return best, best_cuts
