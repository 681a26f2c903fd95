import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from tablemech import (
    CHUNK,
    CutoffVector,
    EstimateWithError,
    TableMechanismGrid,
    estimate_agent_payoff,
    estimate_eu,
    estimate_value,
    multi_cutoff_eu,
)
from tablemech.montecarlo import _MASK64, thread_count


def manual_estimate(value_fn, n, n_samples, seed):
    """Replay the counter-based stream directly and reduce in one pass."""
    vals = []
    remaining, index = n_samples, 0
    while remaining:
        count = min(CHUNK, remaining)
        gen = Generator(Philox(key=((seed & _MASK64) << 64) | index))
        u = gen.random((count, 2 * n))
        vals.append(np.asarray(value_fn(u[:, :n], u[:, n:]), dtype=float))
        remaining -= count
        index += 1
    v = np.concatenate(vals)
    return v.mean(), v.std(ddof=1) / math.sqrt(v.size)


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(0.5, -1e-9, 10, 0)
    with pytest.raises(ValueError):
        EstimateWithError(0.5, 0.1, 0, 0)


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("TABLEMECH_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("TABLEMECH_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("TABLEMECH_THREADS", "0")
    assert thread_count() == 1
    monkeypatch.setenv("TABLEMECH_THREADS", "zebra")
    assert thread_count() == 1


def test_estimate_matches_single_pass_replay():
    # the chunked Welford/Chan reduction must agree with a plain one-pass
    # mean/std over the identical Philox stream
    fn = lambda p, a: p[:, 0] + 0.25 * a[:, 1]
    for n_samples in (2, 1000, CHUNK, CHUNK + 1, 3 * CHUNK + 17):
        est = estimate_value(fn, 2, n_samples, seed=99)
        mean, se = manual_estimate(fn, 2, n_samples, 99)
        assert est.mean == pytest.approx(mean, abs=1e-13)
        assert est.std_error == pytest.approx(se, rel=1e-10)
        assert est.n_samples == n_samples and est.seed == 99


def test_determinism_same_seed_bitwise():
    fn = lambda p, a: p.max(axis=1)
    a = estimate_value(fn, 3, 100_000, seed=5)
    b = estimate_value(fn, 3, 100_000, seed=5)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = estimate_value(fn, 3, 100_000, seed=6)
    assert c.mean != a.mean


def test_determinism_across_thread_counts(monkeypatch):
    fn = lambda p, a: p.min(axis=1)
    monkeypatch.setenv("TABLEMECH_THREADS", "1")
    a = estimate_value(fn, 2, 200_000, seed=17)
    monkeypatch.setenv("TABLEMECH_THREADS", "4")
    b = estimate_value(fn, 2, 200_000, seed=17)
    assert (a.mean, a.std_error, a.n_samples) == (b.mean, b.std_error, b.n_samples)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_value(lambda p, a: p[:, 0], 2, 1)
    with pytest.raises(ValueError):
        estimate_value(lambda p, a: p, 2, 100)  # wrong output shape
    with pytest.raises(ValueError):
        estimate_value(lambda p, a: p[:, 0], 0, 100)



def test_seed_must_fit_the_philox_key():
    # -1 and 2**64 - 1 would alias through the 64-bit key mask
    fn = lambda p, a: p[:, 0]
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            estimate_value(fn, 2, 100, seed=seed)
    top = estimate_value(fn, 2, 100, seed=(1 << 64) - 1)
    assert top.seed == (1 << 64) - 1
    assert estimate_value(fn, 2, 100, seed=0).mean != top.mean


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_callback_values_rejected(bad):
    def fn(p, a):
        v = p[:, 0].copy()
        v[3] = bad
        return v

    with pytest.raises(ValueError, match="non-finite"):
        estimate_value(fn, 2, 100)

def test_estimate_eu_single_cutoff_within_4_sigma():
    est = estimate_eu(CutoffVector([0.5]), n_samples=200_000, seed=31)
    assert abs(est.mean - 0.5625) <= 4 * est.std_error
    # stderr should be near the true sd / sqrt(n); sd of the payout is ~0.3
    assert 0.2 / math.sqrt(200_000) < est.std_error < 0.4 / math.sqrt(200_000)


@pytest.mark.parametrize("cuts", [[0.9, 0.1], [0.6, 0.3], [0.25, 0.5, 0.75]])
def test_estimate_eu_multi_cutoff_within_4_sigma(cuts):
    est = estimate_eu(CutoffVector(cuts), n_samples=300_000, seed=11)
    assert abs(est.mean - multi_cutoff_eu(CutoffVector(cuts))) <= 4 * est.std_error


def test_table_and_cutoff_paths_agree_exactly():
    # a table built from on-grid cutoffs floors to the same decisions, so the
    # two mechanism paths must produce identical estimates on the same stream
    cv = CutoffVector([0.5, 0.25])
    tab = TableMechanismGrid.from_cutoffs(cv, 5)
    a = estimate_eu(cv, n_samples=50_000, seed=8)
    b = estimate_eu(tab, n_samples=50_000, seed=8)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)


def test_estimate_eu_callable_mechanism():
    # always pick the default, profit is uniform: EU = 1/2
    def rule(p, a):
        return np.full(p.shape[0], 1, dtype=np.int64)

    est = estimate_eu(rule, n_projects=2, n_samples=100_000, seed=3)
    assert abs(est.mean - 0.5) <= 4 * est.std_error


def test_estimate_agent_payoff_all_on_table():
    # everything on the table: the agent takes its max payoff, mean n/(n+1)
    for n in (2, 4):
        est = estimate_agent_payoff(
            CutoffVector.single(n, 0.0), n_samples=200_000, seed=13
        )
        assert abs(est.mean - n / (n + 1)) <= 4 * est.std_error


def test_estimate_agent_payoff_nothing_extra_on_table():
    # cutoffs at 1 leave only the default: agent payoff is uniform, mean 1/2
    est = estimate_agent_payoff(CutoffVector([1.0, 1.0]), n_samples=100_000, seed=13)
    assert abs(est.mean - 0.5) <= 4 * est.std_error
