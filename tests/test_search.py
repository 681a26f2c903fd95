import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tablemech import (
    BestTableResult,
    TableMechanismGrid,
    best_table_mechanism_n2,
    exact_discrete_eu,
    indicator_eu_exact,
)


def staircases(k):
    """Oracle: weakly decreasing thresholds t_0 >= ... >= t_{k-1} in 0..k,
    ascending lexicographically in (t_{k-1}, ..., t_0)."""
    for tup in itertools.combinations_with_replacement(range(k + 1), k):
        yield tuple(reversed(tup))


def indicator(ts, k):
    return np.arange(k)[:, None] >= np.asarray(ts)[None, :]


def enumerate_monotone_indicators(k):
    """Oracle: yield every monotone boolean function on the k x k grid once.

    Arrays are (k, k) with axis 0 the project's own profit, axis 1 the
    other's; entry [i, j] says whether the project is on the table there.
    The count is the central binomial coefficient C(2k, k).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    for ts in staircases(k):
        yield indicator(ts, k)


def threshold_from_diagonal(f0):
    """Oracle: replacement threshold index from the diagonal, sup{p : f(p, p) = 0}.

    Returns the row index t such that [i >= t] is the dominating threshold
    (0 when the diagonal is all ones).
    """
    diag = np.diagonal(np.asarray(f0, dtype=bool))
    zeros = np.flatnonzero(~diag)
    return int(zeros.max()) if zeros.size else 0


def column_score(t, j, k):
    """Column j's integer EU contribution under row threshold t."""
    return sum(i - j for i in range(t, k))


def enumeration_search(k):
    """Oracle: score every staircase and pick the result as the search must."""
    score = [[column_score(t, j, k) for j in range(k)] for t in range(k + 1)]
    best_score, best_ts, count = None, [], 0
    for ts in staircases(k):
        count += 1
        s = sum(score[t][j] for j, t in enumerate(ts))
        if best_score is None or s > best_score:
            best_score, best_ts = s, [ts]
        elif s == best_score:
            best_ts.append(ts)
    eu_exact = Fraction(1, 2) + Fraction(best_score, 2 * k * k * (k - 1))
    grid = np.linspace(0.0, 1.0, k)
    thresholds = [ts for ts in best_ts if len(set(ts)) == 1 and ts[0] < k]
    if thresholds:
        chosen = min(thresholds, key=lambda ts: (abs(grid[ts[0]] - 0.5), ts))
        cutoff = float(grid[chosen[0]])
    else:
        chosen, cutoff = best_ts[0], None
    return BestTableResult(
        grid_resolution=k,
        best=indicator(chosen, k),
        eu=float(eu_exact),
        eu_exact=eu_exact,
        is_cutoff_shaped=bool(thresholds),
        best_cutoff=cutoff,
        maximizers=tuple(indicator(ts, k) for ts in best_ts),
        n_candidates=count,
    )


def cubic_dp(k):
    """Oracle: O(k^3) column DP in plain Python, (max score, maximizers in order)."""
    best = [[column_score(t, 0, k) for t in range(k + 1)]]
    for j in range(1, k):
        best.append(
            [column_score(t, j, k) + max(best[j - 1][t:]) for t in range(k + 1)]
        )
    top = max(best[-1])

    def paths(j, t, target):
        # staircases of columns 0..j ending at t_j = t that score target
        if best[j][t] != target:
            return []
        if j == 0:
            return [(t,)]
        rest = target - column_score(t, j, k)
        return [
            head + (t,) for tp in range(t, k + 1) for head in paths(j - 1, tp, rest)
        ]

    # ascending lexicographic in (t_{k-1}, ..., t_0)
    found = [p for t in range(k + 1) for p in paths(k - 1, t, top)]
    return top, sorted(found, key=lambda ts: ts[::-1])


def test_enumeration_count_is_central_binomial():
    for k in range(1, 8):
        count = sum(1 for _ in enumerate_monotone_indicators(k))
        assert count == math.comb(2 * k, k)


def test_enumeration_has_no_duplicates_and_all_monotone():
    for k in (2, 3, 4):
        seen = set()
        for f0 in enumerate_monotone_indicators(k):
            seen.add(f0.tobytes())
            # stacking with an all-on default must satisfy the core invariant
            TableMechanismGrid(
                np.stack([f0, np.ones((k, k), dtype=bool)], axis=-1)
            )
        assert len(seen) == math.comb(2 * k, k)


def test_enumeration_resource_limit():
    # the oracle is lazy: k=11's first staircase (all on) comes without the rest
    first = next(enumerate_monotone_indicators(11))
    assert first.shape == (11, 11) and first.all()
    with pytest.raises(ValueError):
        list(enumerate_monotone_indicators(0))


def test_exact_eu_agrees_with_float_evaluator():
    # integer-score rational EU vs the generic per-profile numpy evaluator
    rng = np.random.default_rng(5)
    k = 5
    for _ in range(20):
        ts = np.sort(rng.integers(0, k + 1, size=k))[::-1]
        f0 = np.arange(k)[:, None] >= ts[None, :]
        tab = TableMechanismGrid(
            np.stack([f0, np.ones((k, k), dtype=bool)], axis=-1)
        )
        assert float(indicator_eu_exact(f0)) == pytest.approx(
            exact_discrete_eu(tab), abs=1e-12
        )


def test_all_off_candidate_scores_exactly_one_half():
    for k in (3, 5):
        f0 = np.zeros((k, k), dtype=bool)
        assert indicator_eu_exact(f0) == Fraction(1, 2)


@pytest.mark.parametrize(
    "k,eu",
    [
        (3, Fraction(7, 12)),
        (5, Fraction(23, 40)),
        (7, Fraction(4, 7)),
        (9, Fraction(41, 72)),
    ],
)
def test_best_table_odd_k(k, eu):
    res = best_table_mechanism_n2(k)
    assert isinstance(res, BestTableResult)
    assert res.n_candidates == math.comb(2 * k, k)
    assert res.eu_exact == eu
    assert res.eu == float(eu)
    assert res.is_cutoff_shaped
    # odd grids put a point exactly at 1/2, and ties pick it
    assert res.best_cutoff == 0.5
    # two mirrored constant thresholds tie, nothing else
    assert len(res.maximizers) == 2
    t_lo, t_hi = (k - 1) // 2, (k + 1) // 2
    grid = np.linspace(0.0, 1.0, k)
    for maxi, t in zip(
        sorted(res.maximizers, key=lambda f: f.sum(), reverse=True), (t_lo, t_hi)
    ):
        expect = np.arange(k)[:, None] >= t
        assert np.array_equal(maxi, np.broadcast_to(expect, (k, k)))
    # the winning indicator is the threshold at 1/2 itself
    assert np.array_equal(res.best, np.broadcast_to(np.arange(k)[:, None] >= t_lo, (k, k)))
    assert grid[t_lo] == 0.5


def test_best_table_even_k():
    res = best_table_mechanism_n2(4)
    assert res.is_cutoff_shaped
    assert res.best_cutoff == pytest.approx(2.0 / 3.0)
    assert res.eu_exact == Fraction(7, 12)
    assert len(res.maximizers) == 1


def test_best_dominates_every_cutoff_candidate():
    k = 6
    res = best_table_mechanism_n2(k)
    for t in range(k + 1):
        f0 = np.broadcast_to(np.arange(k)[:, None] >= t, (k, k))
        assert indicator_eu_exact(f0) <= res.eu_exact
    # and beats the default-only mechanism strictly for k >= 3
    assert res.eu_exact > Fraction(1, 2)


def test_threshold_from_diagonal():
    k = 5
    f0 = np.arange(k)[:, None] >= np.array([4, 3, 2, 1, 0])[None, :]
    # diagonal is f0[i, i] = (i >= 4 - i): zeros at i = 0, 1, ones after
    assert threshold_from_diagonal(f0) == 1
    assert threshold_from_diagonal(np.ones((3, 3), dtype=bool)) == 0
    assert threshold_from_diagonal(np.zeros((3, 3), dtype=bool)) == 2


def test_diagonal_threshold_dominates_pointwise_in_off_block_cases():
    # the optimality proof splits profiles in four; replacing a candidate by
    # the diagonal-derived threshold may only *raise* the expected profit on
    # the two mixed blocks (own profit clears the bar, other side does not,
    # or vice versa).  Checked in exact integers: contributions scale by 2:
    # both on the table -> i + j, default alone -> 2 j.
    rng = np.random.default_rng(77)
    k = 7
    for _ in range(100):
        ts = np.sort(rng.integers(0, k + 1, size=k))[::-1]
        f0 = np.arange(k)[:, None] >= ts[None, :]
        t = threshold_from_diagonal(f0)
        for i in range(k):
            for j in range(k):
                mixed = (i < t) != (j < t)
                if not mixed:
                    continue  # boundary blocks may move either way on a grid
                old = i + j if f0[i, j] else 2 * j
                new = i + j if i >= t else 2 * j
                assert new >= old


def test_search_validation():
    with pytest.raises(ValueError):
        best_table_mechanism_n2(1)
    # past the dense table guard: refused before anything k x k is allocated
    k = math.isqrt(TableMechanismGrid._MAX_CELLS) + 1
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="memory guard"):
            best_table_mechanism_n2(k)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        indicator_eu_exact(np.ones((2, 3), dtype=bool))


@pytest.mark.parametrize("k", range(2, 11))
def test_dp_matches_enumeration_in_every_field(k):
    res, oracle = best_table_mechanism_n2(k), enumeration_search(k)
    assert res.grid_resolution == oracle.grid_resolution
    assert res.n_candidates == oracle.n_candidates == math.comb(2 * k, k)
    assert res.eu_exact == oracle.eu_exact
    assert res.eu == oracle.eu
    assert res.is_cutoff_shaped == oracle.is_cutoff_shaped
    assert res.best_cutoff == oracle.best_cutoff
    assert np.array_equal(res.best, oracle.best)
    assert len(res.maximizers) == len(oracle.maximizers)
    for got, want in zip(res.maximizers, oracle.maximizers):
        assert np.array_equal(got, want)


def test_dp_matches_cubic_dp_oracle():
    for k in range(11, 41):
        res = best_table_mechanism_n2(k)
        top, found = cubic_dp(k)
        assert res.eu_exact == Fraction(1, 2) + Fraction(top, 2 * k * k * (k - 1))
        assert len(res.maximizers) == len(found)
        for got, ts in zip(res.maximizers, found):
            assert np.array_equal(got, indicator(ts, k))


def test_maximizer_count_by_parity():
    # even k: one threshold; odd k: the two mirrored thresholds around 1/2
    for k in range(2, 61):
        res = best_table_mechanism_n2(k)
        assert len(res.maximizers) == (2 if k % 2 else 1), k
        assert res.is_cutoff_shaped
