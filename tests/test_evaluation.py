import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablemech import (
    CutoffVector,
    GridError,
    GridMechanism,
    TableMechanismGrid,
    ValueProfile,
    exact_discrete_eu,
)
from tablemech import evaluation
from tablemech.evaluation import flatten_index, lattice_points
from test_audit import message_space, message_space_size


def from_table_per_row(table):
    """Oracle: the per-row argmax tabulation that ``from_table`` replaced."""
    n, k = table.n_projects, table.grid_resolution
    size = k**n
    masks = table.indicators.reshape(size, n)
    vals = lattice_points(n, k)
    dec = np.empty((size, size), dtype=np.int64)
    for r in range(size):
        dec[r] = np.argmax(np.where(masks[r], vals, -np.inf), axis=1)
    return dec


def from_callable_loop(n, k, rule):
    """Oracle: the per-cell double loop that the batched ``from_callable``
    replaced, calling ``rule`` on one (profits, payoffs) pair at a time."""
    grid = np.linspace(0.0, 1.0, k)
    pts = [grid[list(m)] for m in itertools.product(range(k), repeat=n)]
    size = k**n
    dec = np.empty((size, size), dtype=np.int64)
    for r, p in enumerate(pts):
        for c, a in enumerate(pts):
            dec[r, c] = rule(p[None], a[None])[0]
    return dec


def random_monotone_table(rng, n, k):
    """Prefix-OR of sparse random seeds, with one random project always on."""
    ind = rng.random((k,) * n + (n,)) < rng.uniform(0.02, 0.4)
    for axis in range(n):
        ind = np.logical_or.accumulate(ind, axis=axis)
    ind[..., rng.integers(0, n)] = True
    return TableMechanismGrid(ind)


def test_lattice_points_order_and_values():
    pts = lattice_points(2, 3)
    assert pts.shape == (9, 2)
    assert np.array_equal(pts[0], [0.0, 0.0])
    assert np.array_equal(pts[1], [0.0, 0.5])  # last axis fastest (C order)
    assert np.array_equal(pts[3], [0.5, 0.0])
    assert np.array_equal(pts[-1], [1.0, 1.0])


def test_flatten_index_roundtrip():
    pts = lattice_points(3, 4)
    for r in range(0, 64, 7):
        assert flatten_index(pts[r], 3, 4, "x") == r
    with pytest.raises(GridError):
        flatten_index([0.3, 0.0, 0.0], 3, 4, "x")


@pytest.mark.parametrize(
    "profits,k,expect",
    [
        ((0.0,), 2, 2),
        ((1.0,), 2, 4),
        ((0.5, 1.0), 3, 54),
    ],
)
def test_message_space_size_small_cases(profits, k, expect):
    prof = ValueProfile(profits, (0.0,) * len(profits))
    msgs = list(message_space(prof, k))
    assert len(msgs) == expect
    assert message_space_size(prof, k) == expect
    # every streamed report is feasible and on-grid
    grid = set(np.linspace(0.0, 1.0, k).tolist())
    for m in msgs:
        assert m.feasible_given(prof)
        assert set(m.reported_profits) <= grid
        assert set(m.reported_payoffs) <= grid
    assert len(set(msgs)) == expect  # no duplicates


@given(
    st.integers(2, 4),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=40, deadline=None)
def test_message_space_size_closed_form(k, idx):
    kk = min(k, 4)
    i0, i1 = min(idx[0], kk - 1), min(idx[1], kk - 1)
    grid = np.linspace(0.0, 1.0, kk)
    prof = ValueProfile((grid[i0], grid[i1]), (0.0, 0.0))
    assert message_space_size(prof, kk) == (i0 + 1) * (i1 + 1) * kk**2


def test_grid_mechanism_validation():
    with pytest.raises(ValueError):
        GridMechanism(2, 3, np.zeros((9, 8), dtype=int))
    with pytest.raises(ValueError):
        GridMechanism(2, 3, np.full((9, 9), 2))
    with pytest.raises(ValueError):
        GridMechanism(2, 3, np.zeros((9, 9), dtype=float))
    gm = GridMechanism(2, 3, np.zeros((9, 9), dtype=int))
    assert gm.decide([0.5, 1.0], [0.0, 0.0]) == 0


@pytest.mark.parametrize("block_cells", [None, 40])
@pytest.mark.parametrize("n,ks", [(2, (2, 3, 5, 9)), (3, (2, 3, 4)), (4, (2, 3))])
def test_from_table_matches_per_row_oracle(n, ks, block_cells, monkeypatch):
    if block_cells is not None:  # many set chunks, one set or fewer each
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(100 + n)
    for k in ks:
        for _ in range(6):
            tab = random_monotone_table(rng, n, k)
            dec = GridMechanism.from_table(tab).decisions
            assert dec.dtype == np.int8
            assert np.array_equal(dec, from_table_per_row(tab))


@pytest.mark.parametrize("block_cells", [None, 5])
def test_from_callable_matches_per_cell_loop(block_cells, monkeypatch):
    if block_cells is not None:  # one profit row per block
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", block_cells)

    def rule(p, a):  # depends on both profits and payoffs
        score = np.floor(7 * p.sum(axis=1) + 3 * a[:, 0] - a[:, -1]).astype(int)
        return score % p.shape[1]

    for n in (1, 2, 3):
        for k in (2, 3, 4):
            dec = GridMechanism.from_callable(n, k, rule).decisions
            assert np.array_equal(dec, from_callable_loop(n, k, rule)), (n, k)
    calls = []
    GridMechanism.from_callable(2, 3, lambda p, a: calls.append(len(p)) or rule(p, a))
    assert calls == ([81] if block_cells is None else [9] * 9)


@pytest.mark.parametrize(
    "bad",
    [
        lambda p, a: 1,  # a scalar, not one index per row
        lambda p, a: np.zeros(len(p) - 1, int),
        lambda p, a: np.zeros((len(p), 1), int),
        lambda p, a: np.full(len(p), 0.0),  # not integers
        lambda p, a: np.full(len(p), 2),  # out of range for n = 2
        lambda p, a: np.full(len(p), -1),
    ],
)
def test_callable_rule_output_is_checked(bad):
    from tablemech import estimate_eu

    with pytest.raises(ValueError, match="decision rule"):
        GridMechanism.from_callable(2, 3, bad)
    with pytest.raises(ValueError, match="decision rule"):
        estimate_eu(bad, 2, n_samples=100)


@pytest.mark.parametrize("dtype", [np.int64, np.int8])
def test_grid_mechanism_copies_its_decisions(dtype):
    d = np.zeros((9, 9), dtype=dtype)
    gm = GridMechanism(2, 3, d)
    assert d.flags.writeable  # the caller's array is left as it was
    d[0, 0] = 1
    assert gm.decide([0, 0], [0, 0]) == 0
    # a read-only view over a writable base does not alias the mechanism
    base = np.zeros((9, 9), dtype=dtype)
    view = base.view()
    view.setflags(write=False)
    gm = GridMechanism(2, 3, view)
    base[0, 0] = 1
    assert gm.decide([0, 0], [0, 0]) == 0
    assert gm.decisions.dtype == np.int8
    assert not gm.decisions.flags.writeable


def test_decisions_are_int8_and_range_checked_before_narrowing():
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5, 0.25]), 3)
    assert GridMechanism.from_table(tab).decisions.dtype == np.int8
    ones = GridMechanism.from_callable(2, 3, lambda p, a: np.ones(len(p), int))
    assert ones.decisions.dtype == np.int8
    with pytest.raises(ValueError):  # 256 would wrap to 0 in int8
        GridMechanism(2, 3, np.full((9, 9), 256))
    with pytest.raises(ValueError):
        GridMechanism(2, 3, np.full((9, 9), -256))


def test_from_table_matches_decide_table():
    from tablemech.core import decide_table

    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5, 0.25]), 5)
    gm = GridMechanism.from_table(tab)
    grid = np.linspace(0.0, 1.0, 5)
    for multi in itertools.product(range(0, 5, 2), repeat=3):
        for pay in itertools.product(range(0, 5, 2), repeat=3):
            prof = ValueProfile(tuple(grid[list(multi)]), tuple(grid[list(pay)]))
            assert gm.decide(prof.profits, prof.payoffs) == decide_table(tab, prof)


def test_exact_discrete_eu_constant_rules():
    # always pick project 0: EU is the mean grid profit of coordinate 0
    gm = GridMechanism(2, 5, np.zeros((25, 25), dtype=int))
    assert exact_discrete_eu(gm) == pytest.approx(0.5)
    gm1 = GridMechanism(2, 5, np.ones((25, 25), dtype=int))
    assert exact_discrete_eu(gm1) == pytest.approx(0.5)


def test_exact_discrete_eu_single_cutoff_closed_form():
    # two projects, threshold c on the first, continuous payoffs split ties:
    # below the threshold the default's profit is taken, above it the mean of
    # the pair.  On a k-grid with c = 0.5 the average works out to
    # 0.5625 + 0.0625 / k exactly.
    for k in (5, 11, 101):
        tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), k)
        got = exact_discrete_eu(tab)
        assert got == pytest.approx(0.5625 + 0.0625 / k, abs=1e-12)
    assert abs(exact_discrete_eu(
        TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 101)
    ) - 0.5625) < 0.01  # within O(1/k) of the continuous value


def test_exact_discrete_eu_converges_like_one_over_k():
    # |discrete - continuous| <= C / k with one constant across resolutions
    from tablemech.analytic import multi_cutoff_eu

    cv = CutoffVector([0.6, 0.3])
    target = multi_cutoff_eu(cv)
    C = 0.08
    for k in (11, 51, 201):
        got = exact_discrete_eu(TableMechanismGrid.from_cutoffs(cv, k))
        assert abs(got - target) <= C / k


def test_exact_discrete_eu_grid_vs_table_agree_for_generic_payoffs():
    # tabulated argmax (ties to low index) vs continuous tie-splitting differ
    # only on tie sets, which vanish as k grows; check they are close
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 21)
    gm = GridMechanism.from_table(tab)
    assert abs(exact_discrete_eu(gm) - exact_discrete_eu(tab)) < 0.03
