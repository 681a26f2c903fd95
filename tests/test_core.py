import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablemech.core import (
    AuditReport,
    CutoffVector,
    GridError,
    Report,
    TableMechanismGrid,
    ValueProfile,
    cutoff_to_grid,
    decide_table,
)


def test_value_profile_validation():
    vp = ValueProfile((0.5, 1.0), (0.0, 0.25))
    assert vp.n_projects == 2
    with pytest.raises(ValueError):
        ValueProfile((0.5,), (0.1, 0.2))
    with pytest.raises(ValueError):
        ValueProfile((), ())
    with pytest.raises(ValueError):
        ValueProfile((1.5, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        ValueProfile((0.5, 0.0), (0.0, -0.1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ValueProfile((bad, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError, match="finite"):
        ValueProfile((0.5, 0.5), (0.5, bad))
    with pytest.raises(ValueError, match="finite"):
        Report((0.5, bad), (0.5, 0.5))
    with pytest.raises(ValueError, match="finite"):
        Report((0.5, 0.5), (bad, 0.5))
    with pytest.raises(ValueError, match="finite"):
        CutoffVector([bad, 0.5])


def test_report_feasibility_is_no_overselling():
    truth = ValueProfile((0.5, 1.0), (0.2, 0.8))
    assert Report((0.5, 1.0), (0.0, 0.0)).feasible_given(truth)
    assert Report((0.0, 0.25), (1.0, 1.0)).feasible_given(truth)
    # overselling any coordinate is infeasible, payoff claims are free
    assert not Report((0.75, 1.0), (0.0, 0.0)).feasible_given(truth)
    assert not Report((0.5,), (0.0,)).feasible_given(truth)


def test_audit_report_witness_consistency():
    truth = ValueProfile((0.5,), (0.5,))
    dev = Report((0.0,), (0.0,))
    with pytest.raises(ValueError):
        AuditReport(True, (truth, dev, 0.5), 1, True)
    with pytest.raises(ValueError):
        AuditReport(False, None, 1, True)
    with pytest.raises(ValueError):
        AuditReport(False, (truth, dev, 0.0), 1, True)
    ok = AuditReport(False, (truth, dev, 0.25), 7, True)
    assert ok.checked == 7


def test_cutoff_vector_basics():
    cv = CutoffVector([0.9, 0.1])
    assert cv.n_projects == 3
    assert np.array_equal(cv.full_cutoffs, [0.9, 0.1, 0.0])
    assert CutoffVector([]).n_projects == 1
    assert CutoffVector.single(4, 0.3) == CutoffVector([0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        CutoffVector([1.2])
    with pytest.raises(ValueError):
        CutoffVector([-0.1])


def test_cutoff_on_table_and_decide():
    cv = CutoffVector([0.5])
    assert np.array_equal(cv.on_table([0.2, 0.9]), [False, True])
    assert np.array_equal(cv.on_table([0.5, 0.0]), [True, True])
    # off-table favorite loses to the default
    assert cv.decide([0.2, 0.9], [0.9, 0.1]) == 1
    assert cv.decide([0.7, 0.9], [0.9, 0.1]) == 0


@pytest.mark.parametrize(
    "c,k,expect",
    [
        (0.0, 4, [True, True, True, True]),
        (1.0, 3, [False, False, True]),
        (0.5, 5, [False, False, True, True, True]),
    ],
)
def test_cutoff_indicator_axis(c, k, expect):
    ind = CutoffVector([c]).indicator_grid(k)
    grid = np.linspace(0.0, 1.0, k)
    got = [bool(ind[(i,) + (0,) * 1 + (0,)]) for i in range(k)]
    assert got == expect
    # default project on everywhere
    assert ind[..., 1].all()
    assert grid.shape == (k,)


def test_table_invariants_enforced():
    # non-monotone indicator rejected
    bad = np.zeros((3, 3, 2), dtype=bool)
    bad[..., 1] = True
    bad[0, 0, 0] = True  # on at the bottom, off above: not monotone
    with pytest.raises(ValueError, match="monotone"):
        TableMechanismGrid(bad)
    # nobody always on the table rejected
    bad2 = np.zeros((3, 3, 2), dtype=bool)
    bad2[2, :, 0] = True
    bad2[:, 2, 1] = True
    with pytest.raises(ValueError, match="table at every profile"):
        TableMechanismGrid(bad2)
    with pytest.raises(ValueError):
        TableMechanismGrid(np.ones((3, 3, 5), dtype=bool))


def test_decide_table_examples():
    # all on the table: agent's favorite wins
    all_on = TableMechanismGrid(np.ones((5, 5, 2), dtype=bool))
    assert decide_table(all_on, ValueProfile((0.5, 0.5), (0.9, 0.1))) == 0
    # threshold at .5 on project 0: below it only the default remains
    tab = cutoff_to_grid(CutoffVector([0.5]), 5)
    assert decide_table(tab, ValueProfile((0.25, 1.0), (0.9, 0.1))) == 1
    assert decide_table(tab, ValueProfile((0.75, 1.0), (0.9, 0.1))) == 0
    # three projects, only the default ever on
    only_default = TableMechanismGrid.from_predicates(
        3, 3, [lambda p: False, lambda p: False, lambda p: True]
    )
    for profits in itertools.product([0.0, 0.5, 1.0], repeat=3):
        prof = ValueProfile(profits, (1.0, 1.0, 0.0))
        assert decide_table(only_default, prof) == 2


def test_decide_table_tie_breaks_low_index():
    all_on = TableMechanismGrid(np.ones((3, 3, 2), dtype=bool))
    assert decide_table(all_on, ValueProfile((0.0, 0.0), (0.5, 0.5))) == 0


def test_off_grid_profit_rejected():
    tab = cutoff_to_grid(CutoffVector([0.5]), 5)
    with pytest.raises(GridError):
        tab.on_table([0.3, 0.0])
    with pytest.raises(GridError):
        decide_table(tab, ValueProfile((0.2, 0.1), (0.5, 0.5)))
    # dimension mismatch is its own error
    with pytest.raises(ValueError):
        decide_table(tab, ValueProfile((0.25,), (0.5,)))


def test_on_table_floor_matches_lattice_on_grid_points():
    tab = cutoff_to_grid(CutoffVector([0.5, 0.25]), 5)
    grid = np.linspace(0.0, 1.0, 5)
    for multi in itertools.product(range(5), repeat=3):
        p = grid[list(multi)]
        assert np.array_equal(tab.on_table_floor(p), tab.on_table(p))
    # between lattice points the mask snaps down
    assert np.array_equal(
        tab.on_table_floor(np.array([0.49, 0.26, 0.0])), tab.on_table([0.25, 0.25, 0.0])
    )


@st.composite
def staircase_tables(draw, k=4):
    # random monotone indicator for project 0, default always on
    ts = sorted(draw(st.lists(st.integers(0, k), min_size=k, max_size=k)), reverse=True)
    f0 = np.arange(k)[:, None] >= np.asarray(ts)[None, :]
    return TableMechanismGrid(np.stack([f0, np.ones((k, k), dtype=bool)], axis=-1))


@given(staircase_tables())
@settings(max_examples=50, deadline=None)
def test_on_table_sets_nest_along_the_order(tab):
    k = tab.grid_resolution
    grid = np.linspace(0.0, 1.0, k)
    pts = list(itertools.product(range(k), repeat=2))
    for a in pts:
        for b in pts:
            if all(x <= y for x, y in zip(a, b)):
                low = tab.on_table(grid[list(a)])
                high = tab.on_table(grid[list(b)])
                assert not np.any(low & ~high)


@given(staircase_tables(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_decide_table_picks_a_best_on_table_project(tab, i, j):
    grid = tab.grid
    prof = ValueProfile(
        (float(grid[i]), float(grid[j])), (float(grid[j]), float(grid[i]))
    )
    d = decide_table(tab, prof)
    mask = tab.on_table(prof.profits)
    assert mask[d]
    payoffs = np.asarray(prof.payoffs)
    assert payoffs[d] >= payoffs[mask].max() - 1e-15


def test_cutoff_grid_roundtrip_decisions_match_threshold_rule():
    cv = CutoffVector([0.5, 0.25])
    tab = cutoff_to_grid(cv, 5)
    grid = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = grid[rng.integers(0, 5, size=3)]
        a = grid[rng.integers(0, 5, size=3)]
        assert decide_table(tab, ValueProfile(tuple(p), tuple(a))) == cv.decide(p, a)
