"""Exact search over all N=2 table mechanisms on a grid.

A table mechanism for two projects is pinned down by the first project's
monotone indicator (the default's is identically 1).  Monotone boolean
functions on the k x k grid are staircases: column j (the other project's
profit) gets a row threshold t_j, and monotonicity makes t weakly decreasing
in j.  There are C(2k, k) of them.

Expected profit comparisons are exact: with both projects on the table each
is chosen with probability 1/2 (continuous payoffs), so a candidate's EU is
1/2 plus an integer score over its on-set, and the argmax needs no float
tolerance at all.  The score adds up over columns, so a running-max dynamic
program over columns maximizes it over all C(2k, k) staircases in O(k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import TableMechanismGrid

__all__ = [
    "indicator_eu_exact",
    "BestTableResult",
    "best_table_mechanism_n2",
]


def _indicator_from_thresholds(ts: tuple[int, ...], k: int) -> np.ndarray:
    rows = np.arange(k)[:, None]
    return rows >= np.asarray(ts)[None, :]


def indicator_eu_exact(f0: np.ndarray) -> Fraction:
    """Exact discrete EU of the two-project table with first indicator f0.

    Per grid profile: both on the table -> mean of the two profits, else the
    default's profit alone.  Rational arithmetic over the uniform lattice.
    """
    f0 = np.asarray(f0, dtype=bool)
    k = f0.shape[0]
    if f0.shape != (k, k):
        raise ValueError(f"indicator must be square, got {f0.shape}")
    total = int(np.subtract.outer(np.arange(k), np.arange(k))[f0].sum())
    return Fraction(1, 2) + Fraction(total, 2 * k * k * (k - 1))


@dataclass(frozen=True)
class BestTableResult:
    """Outcome of the exact N=2 search.

    Exact grid ties are expected (mirrored staircases score identically), so
    every maximizer is kept, in ascending lexicographic order of the
    thresholds read from the last column back, (t_{k-1}, ..., t_0).
    ``best`` is the maximizer whose threshold sits nearest 1/2 when any
    maximizer is a threshold, otherwise the first.  ``eu`` is the shared
    maximal EU, exact in ``eu_exact``; ``n_candidates`` counts the staircases
    the optimum is taken over.
    """

    grid_resolution: int
    best: np.ndarray
    eu: float
    eu_exact: Fraction
    is_cutoff_shaped: bool
    best_cutoff: float | None
    maximizers: tuple[np.ndarray, ...]
    n_candidates: int


def _maximizing_thresholds(k: int) -> tuple[int, list[tuple[int, ...]]]:
    """Maximal score and every maximizing staircase, by a DP over columns.

    Column j scores sum_{i >= t} (i - j) = (k-t)(k-1+t)/2 - (k-t) j under
    threshold t.  best[j, t] is the top score of columns 0..j with t_j = t;
    t_j <= t_{j-1} makes it score + the suffix max of best[j-1] from t on.
    Backtracking from the last column in ascending t yields the maximizers in
    ascending lexicographic order of (t_{k-1}, ..., t_0).
    """
    t = np.arange(k + 1, dtype=np.int64)
    base = (k - t) * (k - 1 + t) // 2
    best = np.empty((k, k + 1), dtype=np.int64)
    best[0] = base
    for j in range(1, k):
        best[j] = base - (k - t) * j + np.maximum.accumulate(best[j - 1, ::-1])[::-1]
    top = int(best[-1].max())

    # iterative depth-first search over partial staircases (t_j, ..., t_{k-1})
    found = []
    stack = [(tj,) for tj in np.flatnonzero(best[-1] == top)[::-1].tolist()]
    while stack:
        ts = stack.pop()
        j, tj = k - len(ts), ts[0]
        if j == 0:
            found.append(ts)
            continue
        reach = best[j, tj] - base[tj] + (k - tj) * j
        below = np.flatnonzero(best[j - 1, tj:] == reach)[::-1].tolist()
        stack += [(tj + tp,) + ts for tp in below]
    return top, found


def best_table_mechanism_n2(k: int) -> BestTableResult:
    """Maximize discrete EU exactly over all monotone first indicators.

    Scores are integers, so the argmax set is exact.  is_cutoff_shaped is
    true iff some maximizer depends on its own profit alone through a
    threshold -- the computational content of cutoff optimality at N=2.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if k * k > TableMechanismGrid._MAX_CELLS:
        raise ValueError(
            f"k={k}: a {k}x{k} indicator exceeds the dense table memory guard"
        )
    top, best_ts = _maximizing_thresholds(k)
    eu_exact = Fraction(1, 2) + Fraction(top, 2 * k * k * (k - 1))
    grid = np.linspace(0.0, 1.0, k)
    # constant t <= k-1 is the cutoff [p >= grid[t]]; t = k (never on the
    # table) is constant too but is no cutoff, since [p >= c] is on at p = 1
    thresholds = [ts for ts in best_ts if len(set(ts)) == 1 and ts[0] < k]
    if thresholds:
        chosen = min(thresholds, key=lambda ts: (abs(grid[ts[0]] - 0.5), ts))
        cutoff = float(grid[chosen[0]])
        is_cutoff = True
    else:
        chosen = best_ts[0]
        cutoff = None
        is_cutoff = False
    return BestTableResult(
        grid_resolution=k,
        best=_indicator_from_thresholds(chosen, k),
        eu=float(eu_exact),
        eu_exact=eu_exact,
        is_cutoff_shaped=is_cutoff,
        best_cutoff=cutoff,
        maximizers=tuple(_indicator_from_thresholds(ts, k) for ts in best_ts),
        n_candidates=math.comb(2 * k, k),
    )
