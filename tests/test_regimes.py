import math
from fractions import Fraction

import numpy as np
import pytest

from tablemech import (
    CutoffVector,
    TableMechanismGrid,
    audit_ic,
    dynamic_profit,
    estimate_eu,
    expected_max_surplus,
    menu_grid_mechanism,
    menu_mechanism_is_ic,
    no_verifiability_eu,
    optimal_single_cutoff,
    transfers_eu,
)


def test_no_verifiability_is_one_half():
    for n in (1, 2, 5, 20):
        assert no_verifiability_eu(n) == 0.5
    with pytest.raises(ValueError):
        no_verifiability_eu(0)


def test_every_menu_earns_one_half():
    # payoffs carry no information about profits, so the agent's pick inside
    # any fixed menu leaves the principal at the unconditional mean
    for menu in ({0}, {1}, {0, 1}, {0, 2}, {0, 1, 2}):
        mask = np.isin(np.arange(3), list(menu))

        def favorite(p, a, mask=mask):
            return np.argmax(np.where(mask, a, -np.inf), axis=1)

        est = estimate_eu(favorite, 3, 150_000, seed=9)
        assert abs(est.mean - 0.5) <= 4 * est.std_error
    with pytest.raises(ValueError):
        menu_grid_mechanism(set(), 3, 3)
    with pytest.raises(ValueError):
        menu_grid_mechanism({3}, 3, 3)


def test_menus_survive_unrestricted_audit():
    for n, k in ((2, 5), (3, 3)):
        for menu in ({n - 1}, {0}, set(range(n))):
            assert menu_mechanism_is_ic(menu, n, k)


def test_nonconstant_tables_fail_unrestricted_audit():
    # anything that actually reads profit claims is gameable once claims are
    # free, so only menus survive; sampled over interior cutoffs at k <= 7
    for k in (3, 5, 7):
        grid = [i / (k - 1) for i in range(1, k)]
        for c in grid:  # c = 1 still gates on the report, so it counts too
            tab = TableMechanismGrid.from_cutoffs(CutoffVector([c]), k)
            rep = audit_ic(tab, messages="unrestricted")
            assert not rep.verdict
    # only the always-on table is a menu, and it passes
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.0]), 5)
    assert audit_ic(tab, messages="unrestricted").verdict


def test_menu_grid_mechanism_decides_by_payoff():
    gm = menu_grid_mechanism({0, 1}, 2, 3)
    assert gm.decide([0.0, 0.0], [1.0, 0.5]) == 0
    assert gm.decide([0.0, 0.0], [0.0, 0.5]) == 1


def test_expected_max_surplus_closed_forms():
    # each p_i + a_i is triangular on [0,2]; small-n maxima integrate by hand
    assert expected_max_surplus(1) == pytest.approx(1.0, abs=1e-10)
    assert expected_max_surplus(2) == pytest.approx(37.0 / 30.0, abs=1e-10)
    assert expected_max_surplus(3) == pytest.approx(1.35, abs=1e-10)
    prev = 0.0
    for n in range(1, 12):
        cur = expected_max_surplus(n)
        assert prev < cur < 2.0
        prev = cur
    with pytest.raises(ValueError):
        expected_max_surplus(0)


def test_expected_max_surplus_matches_exact_fractions():
    # E[max] = 2 - 1/(2^n (2n+1)) - int_0^1 (1 - t^2/2)^n dt, the integral
    # expanded binomially into exact rationals
    for n in [*range(1, 201), 500, 1500]:
        exact = 2 - Fraction(1, 2**n * (2 * n + 1)) - sum(
            math.comb(n, j) * Fraction(-1, 2) ** j / (2 * j + 1) for j in range(n + 1)
        )
        got = Fraction(expected_max_surplus(n))
        assert abs(got - exact) <= Fraction(1, 10**15) * exact, n


def test_transfers_benchmark_simulation_agrees_with_quadrature():
    for n in (2, 4):
        bench = transfers_eu(n, n_samples=200_000, seed=6)
        assert bench.fee == pytest.approx(expected_max_surplus(n), abs=1e-10)
        assert abs(bench.principal.mean - bench.fee) <= 4 * bench.principal.std_error
        assert abs(bench.agent_net.mean) <= 4 * bench.agent_net.std_error
        assert bench.agent_net.std_error == bench.principal.std_error


def test_regime_ordering_for_moderate_n():
    # more instruments, more profit: none < dynamic < static < transfers
    for n in (2, 5, 11, 20):
        none = no_verifiability_eu(n)
        dyn = dynamic_profit(n)
        static = optimal_single_cutoff(n).expected_utility
        transfers = expected_max_surplus(n)
        assert none <= dyn + 1e-12
        assert dyn <= static + 1e-12
        assert static <= transfers + 1e-12
        if n > 2:
            assert none < dyn < static < transfers


def test_overselling_attempt_is_caught_as_infeasible():
    # the transfers regime relies on ex-post verification: a report claiming
    # more profit than the truth is flagged by the feasibility predicate
    from tablemech import Report, ValueProfile

    truth = ValueProfile((0.5, 0.25), (0.5, 0.5))
    honest = Report((0.5, 0.25), (1.0, 0.0))
    inflated = Report((0.75, 0.25), (1.0, 0.0))
    assert honest.feasible_given(truth)
    assert not inflated.feasible_given(truth)
