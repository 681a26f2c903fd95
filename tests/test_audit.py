import itertools

import numpy as np
import pytest

from tablemech import (
    CutoffVector,
    GridMechanism,
    Report,
    TableMechanismGrid,
    ValueProfile,
    audit_ic,
    extract_table_structure,
)
from tablemech.core import _as_index_array, decide_table


def message_space(profile: ValueProfile, k: int):
    """Oracle: stream every feasible report at an on-grid true profile.

    Profit claims run over grid points at most the truth per coordinate;
    payoff claims run over the whole grid.  Never materialized: the count is
    prod(idx_i + 1) * k^n.
    """
    idx = _as_index_array(profile.profits, k, "profits")
    grid = np.linspace(0.0, 1.0, k)
    profit_axes = [tuple(grid[: i + 1]) for i in idx]
    payoff_axis = tuple(grid)
    n = profile.n_projects
    for pi in itertools.product(*profit_axes):
        for alpha in itertools.product(payoff_axis, repeat=n):
            yield Report(pi, alpha)


def message_space_size(profile: ValueProfile, k: int) -> int:
    """Oracle: exact number of feasible reports, without enumeration."""
    idx = _as_index_array(profile.profits, k, "profits")
    count = 1
    for i in idx:
        count *= int(i) + 1
    return count * k**profile.n_projects


def reverse_cutoff(k=5):
    # availability *drops* as reported profit rises: not monotone, so the
    # no-overselling reporting game can be gamed by underselling
    def rule(p, a):
        return np.where((p[:, 0] <= 0.5) & (a[:, 0] >= a[:, 1]), 0, 1)

    return GridMechanism.from_callable(2, k, rule)


def replay_witness(gm: GridMechanism, witness, *, no_overselling=True):
    """Re-run both plays of a witness and confirm the claimed gain."""
    truth, report, gain = witness
    if no_overselling:
        assert report.feasible_given(truth)
    d_true = gm.decide(truth.profits, truth.payoffs)
    d_dev = gm.decide(report.reported_profits, report.reported_payoffs)
    realized = truth.payoffs[d_dev] - truth.payoffs[d_true]
    assert realized == pytest.approx(gain)
    assert realized > 0.0


def test_cutoff_table_is_ic_and_pair_count_is_exact():
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 5)
    rep = audit_ic(tab)
    assert rep.verdict and rep.witness is None and rep.exhaustive
    # truths x feasible reports: 25 payoff points x 25 truths x (1+2+..+5)^2
    assert rep.checked == 25 * 25 * 15 * 15


def test_checked_matches_summed_feasible_reports():
    # the closed form (k(k+1)/2)^n k^2n against the per-truth sum of
    # prod(idx_i + 1) feasible profit reports, times payoff truths and reports
    for n in (1, 2, 3, 4):
        for k in range(2, 10):
            size = k**n
            if size * size > GridMechanism._MAX_CELLS:
                continue
            multis = np.indices((k,) * n).reshape(n, -1).T
            summed = int((multis + 1).prod(axis=1).sum()) * size * size
            rep = audit_ic(GridMechanism(n, k, np.zeros((size, size), np.int8)))
            assert rep.verdict and rep.checked == summed, (n, k)


def test_random_staircase_tables_are_ic():
    rng = np.random.default_rng(11)
    k = 5
    for _ in range(10):
        ts = np.sort(rng.integers(0, k + 1, size=k))[::-1]
        f0 = np.arange(k)[:, None] >= ts[None, :]
        tab = TableMechanismGrid(np.stack([f0, np.ones((k, k), dtype=bool)], axis=-1))
        assert audit_ic(tab).verdict


def test_reverse_cutoff_fails_with_underselling_witness():
    gm = reverse_cutoff()
    rep = audit_ic(gm)
    assert not rep.verdict
    assert rep.exhaustive
    truth, report, gain = rep.witness
    # the profitable deviation *under*-reports a high profit
    assert truth.profits[0] > 0.5
    assert report.reported_profits[0] < truth.profits[0]
    assert truth.payoffs[0] > truth.payoffs[1]
    replay_witness(gm, rep.witness)
    # lexicographically first violation on the joint lattice
    assert truth == ValueProfile((0.75, 0.0), (0.25, 0.0))
    assert report.reported_profits == (0.0, 0.0)
    assert gain == pytest.approx(0.25)


def test_unrestricted_messages_break_cutoff_tables():
    # with free profit claims the agent overstates to unlock a project
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 5)
    rep = audit_ic(tab, messages="unrestricted")
    assert not rep.verdict
    truth, report, _ = rep.witness
    assert any(
        r > t for r, t in zip(report.reported_profits, truth.profits)
    )  # the deviation oversells
    replay_witness(GridMechanism.from_table(tab), rep.witness, no_overselling=False)
    assert rep.checked == (25 * 25) ** 2


def test_constant_menu_rule_is_ic_even_unrestricted():
    def rule(p, a):
        return np.argmax(a, axis=1)

    gm = GridMechanism.from_callable(2, 4, rule)
    assert audit_ic(gm, messages="unrestricted").verdict
    assert audit_ic(gm).verdict


def test_extraction_recovers_cutoff_table():
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5, 0.25]), 4)
    res = extract_table_structure(tab)
    assert res.ok and res.witness is None
    assert res.table == tab
    res2 = extract_table_structure(GridMechanism.from_table(tab))
    assert res2.ok and res2.table == tab


def test_extraction_of_constant_rule():
    gm = GridMechanism(2, 3, np.ones((9, 9), dtype=int))
    res = extract_table_structure(gm)
    assert res.ok
    ind = res.table.indicators
    assert not ind[..., 0].any()  # project 0 never achievable
    assert ind[..., 1].all()


def test_extraction_flags_non_table_rule_with_witness():
    gm = reverse_cutoff()
    res = extract_table_structure(gm)
    assert not res.ok
    w = res.witness
    assert w is not None
    # at the witness, the rule disagrees with its own extracted table
    assert gm.decide(w.profits, w.payoffs) != decide_table(res.table, w)


def test_extraction_table_always_wellformed_on_random_rules():
    rng = np.random.default_rng(7)
    for _ in range(10):
        gm = GridMechanism(2, 4, rng.integers(0, 2, size=(16, 16)))
        res = extract_table_structure(gm)  # must not raise: monotone by construction
        assert res.table.grid_resolution == 4
        if res.ok:
            assert audit_ic(gm).verdict
        else:
            assert gm.decide(res.witness.profits, res.witness.payoffs) != decide_table(
                res.table, res.witness
            )


def test_ic_iff_extraction_ok_on_grid_rules():
    # the audit and the extractor are two readings of one fixed point
    rng = np.random.default_rng(23)
    pool = [GridMechanism(2, 3, rng.integers(0, 2, size=(9, 9))) for _ in range(10)]
    pool += [
        GridMechanism.from_cutoffs(CutoffVector([c]), 3) for c in (0.0, 0.5, 1.0)
    ]
    verdicts = []
    for gm in pool:
        ic = audit_ic(gm).verdict
        assert ic == extract_table_structure(gm).ok
        verdicts.append(ic)
    assert any(verdicts) and not all(verdicts)  # both branches exercised


def brute_force_audit(gm: GridMechanism, truths, unrestricted, replays):
    """Oracle: (violating truth, its lex-first best-paying report, gain) or None.

    Walks ``truths`` in order and every feasible report of each over
    ``message_space``; the unrestricted message space is the one feasible at
    the top profit point.  ``replays`` caches (reports, decisions) per
    profit point, since neither depends on the true payoffs.
    """
    n, k = gm.n_projects, gm.grid_resolution
    for truth in truths:
        key = (1.0,) * n if unrestricted else truth.profits
        if key not in replays:
            msgs = list(message_space(ValueProfile(key, key), k))
            replays[key] = msgs, [
                gm.decide(r.reported_profits, r.reported_payoffs) for r in msgs
            ]
        msgs, chosen = replays[key]
        honest = truth.payoffs[gm.decide(truth.profits, truth.payoffs)]
        best = max(truth.payoffs[d] for d in chosen)
        if best > honest:
            first = next(r for r, d in zip(msgs, chosen) if truth.payoffs[d] == best)
            return truth, first, best - honest
    return None


def lattice_profiles(n, k):
    grid = np.linspace(0.0, 1.0, k)
    pts = [tuple(grid[list(m)]) for m in itertools.product(range(k), repeat=n)]
    return [ValueProfile(p, a) for p in pts for a in pts]


def random_rules():
    rng = np.random.default_rng(2024)
    cases = [(2, 2)] * 6 + [(2, 3)] * 6 + [(2, 4)] * 6 + [(3, 2)] * 6 + [(3, 3)] * 4
    for i, (n, k) in enumerate(cases):
        size = k**n
        if i % 3 or n == k == 3:
            yield GridMechanism(n, k, rng.integers(0, n, size=(size, size)))
            continue
        # a cutoff table with at most one decision flipped: IC about half the time
        cuts = rng.integers(0, k, size=n - 1) / (k - 1)
        dec = GridMechanism.from_cutoffs(CutoffVector(cuts), k).decisions.copy()
        if rng.random() < 0.5:
            r, c = rng.integers(0, size, size=2)
            dec[r, c] = rng.integers(0, n)
        yield GridMechanism(n, k, dec)


def test_audit_matches_brute_force_over_message_space():
    verdicts = set()
    for gm in random_rules():
        n, k = gm.n_projects, gm.grid_resolution
        size = k**n
        truths = lattice_profiles(n, k)
        for messages in ("no_overselling", "unrestricted"):
            unrestricted = messages == "unrestricted"
            per_truth = (
                (lambda t: size * size)
                if unrestricted
                else (lambda t: message_space_size(t, k))
            )
            rep = audit_ic(gm, messages=messages)
            assert rep.exhaustive
            assert rep.checked == sum(per_truth(t) for t in truths)
            expected = brute_force_audit(gm, truths, unrestricted, {})
            verdicts.add(rep.verdict)
            if expected is None:
                assert rep.verdict and rep.witness is None
                continue
            assert not rep.verdict
            truth, report, gain = rep.witness
            assert (truth, report, gain) == expected
            # the witness is feasible and replays to exactly its gain
            assert unrestricted or report.feasible_given(truth)
            d_true = gm.decide(truth.profits, truth.payoffs)
            d_dev = gm.decide(report.reported_profits, report.reported_payoffs)
            assert truth.payoffs[d_dev] - truth.payoffs[d_true] == gain
    assert verdicts == {True, False}


def first_violation_float_blocks(dec, achievable, vals):
    """Oracle: the float64 block scan that the per-set honest tables replaced."""
    size, n = achievable.shape
    block = max(1, (1 << 22) // (vals.shape[0] * n))
    cols = np.arange(vals.shape[0])[None, :]
    for start in range(0, size, block):
        rows = np.arange(start, min(start + block, size))
        best = np.where(achievable[rows][:, None, :], vals[None], -np.inf).max(axis=-1)
        # truthful[b, a] = vals[a, dec[p_b, a]]: agent's payoff when honest
        truthful = vals[cols, dec[rows]]
        viol = best > truthful
        if viol.any():
            b, a = np.argwhere(viol)[0]
            return int(rows[b]), int(a)
    return None


def picks_within_table(rng, table):
    """A rule deciding a random on-table project at every (profit, payoff) pair."""
    n, k = table.n_projects, table.grid_resolution
    size = k**n
    masks = table.indicators.reshape(size, 1, n)
    scores = np.where(masks, rng.random((size, size, n)), -1.0)
    return GridMechanism(n, k, scores.argmax(axis=2))


def fast_path_rules():
    """Random, cutoff, flipped-cutoff and picks-within-table rules at n <= 4."""
    rng = np.random.default_rng(4242)
    for n, k in [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]:
        size = k**n
        for _ in range(3):
            yield GridMechanism(n, k, rng.integers(0, n, size=(size, size)))
            cut = CutoffVector(rng.uniform(0.05, 0.95, n - 1))
            gm = GridMechanism.from_cutoffs(cut, k)
            yield gm
            dec = gm.decisions.copy()
            for _ in range(int(rng.integers(1, 4))):
                r, c = rng.integers(0, size, size=2)
                dec[r, c] = rng.integers(0, n)
            yield GridMechanism(n, k, dec)
            yield picks_within_table(rng, TableMechanismGrid.from_cutoffs(cut, k))


@pytest.mark.parametrize("block_cells", [None, 24])
def test_first_violation_matches_float_block_oracle(block_cells, monkeypatch):
    from tablemech import audit as audit_mod
    from tablemech.evaluation import lattice_points

    if block_cells is not None:  # many set chunks and scan blocks of a row or less
        monkeypatch.setattr(audit_mod, "_BLOCK_CELLS", block_cells)
    hits = set()
    for gm in fast_path_rules():
        n, k = gm.n_projects, gm.grid_resolution
        assert gm.decisions.dtype == np.int8
        vals = lattice_points(n, k)
        reach = audit_mod._reach(gm)
        for messages in ("no_overselling", "unrestricted"):
            achievable = audit_mod._achievable(reach, k, messages)
            got = audit_mod._first_violation(gm.decisions, achievable, vals)
            assert got == first_violation_float_blocks(gm.decisions, achievable, vals)
            hits.add(got is None)
    assert hits == {True, False}


def test_many_achievable_sets_match_oracle_in_bounded_memory():
    # n=10, k=2: project i is on iff p_i = 1 (the last always), so the
    # achievable sets are 512 distinct subsets.  One unchunked float64
    # (sets x payoffs x projects) table alone would take 512*1024*10*8 B = 42 MB.
    import tracemalloc

    from tablemech import audit as audit_mod
    from tablemech.evaluation import lattice_points

    n, k = 10, 2
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([1.0] * (n - 1)), k)
    ic = GridMechanism.from_table(tab)
    picks = picks_within_table(np.random.default_rng(10), tab)
    vals = lattice_points(n, k)
    for gm, verdict in ((ic, True), (picks, False)):
        achievable = audit_mod._achievable(audit_mod._reach(gm), k, "no_overselling")
        assert len(np.unique(achievable, axis=0)) == 512
        expected = first_violation_float_blocks(gm.decisions, achievable, vals)
        assert audit_mod._first_violation(gm.decisions, achievable, vals) == expected
        tracemalloc.start()
        try:
            report = audit_ic(gm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict is verdict
        assert peak < 16 * 2**20, f"audit scratch peaked at {peak / 2**20:.1f} MiB"
