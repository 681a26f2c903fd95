"""Incentive-compatibility audit and table-structure extraction.

The audit asks: can the agent ever strictly gain by deviating?  Under
no-overselling the deviations at truth (p, a) are all (pi, alpha) with
pi <= p componentwise; under the unrestricted correspondence every report is
feasible (used by the comparison regimes).

The key reduction: what matters about a deviation is only which project it
triggers.  The set of projects reachable from truth p is

    achievable(p) = { i : exists pi <= p, alpha with d(pi, alpha) = i }

which is computed for all p at once by a prefix-OR sweep along each profit
axis.  Truth-telling is weakly optimal at (p, a) iff a_{d(p,a)} equals the
best a_i over achievable(p); a strict shortfall is an IC violation.  The same
achievable sets are the extracted indicators of the structure theorem: a
mechanism is IC exactly when it is the argmax rule of some monotone table,
and the audit and the extraction are two readings of one computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AuditReport, TableMechanismGrid, ValueProfile, Report
from .evaluation import _BLOCK_CELLS, GridMechanism, lattice_points

__all__ = [
    "ExtractionResult",
    "audit_ic",
    "extract_table_structure",
]

NO_OVERSELLING = "no_overselling"
UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class ExtractionResult:
    """Structure extraction outcome.

    ``table`` always holds the extracted monotone indicators (they are
    well-formed for any input mechanism); ``ok`` says whether the input's
    decisions are the argmax rule of that table at every profile, i.e.
    whether the mechanism *is* a table mechanism.  When not, ``witness`` is
    the lexicographically first profile where the argmax rule is violated.
    """

    ok: bool
    table: TableMechanismGrid
    witness: ValueProfile | None


def _as_grid_mechanism(mech) -> GridMechanism:
    if isinstance(mech, GridMechanism):
        return mech
    if isinstance(mech, TableMechanismGrid):
        return GridMechanism.from_table(mech)
    raise TypeError(f"cannot audit {type(mech).__name__}")


def _reach(mech: GridMechanism) -> np.ndarray:
    """Boolean (k^n, n): projects each profit report triggers for some payoff report."""
    dec = mech.decisions
    return np.stack([(dec == i).any(axis=1) for i in range(mech.n_projects)], axis=1)


def _achievable(reach: np.ndarray, k: int, messages: str) -> np.ndarray:
    """Boolean (k^n, n): projects reachable by some feasible deviation, per truth."""
    size, n = reach.shape
    if messages == UNRESTRICTED:
        return np.broadcast_to(reach.any(axis=0), (size, n))
    if messages != NO_OVERSELLING:
        raise ValueError(f"unknown message correspondence {messages!r}")
    cube = reach.reshape((k,) * n + (n,))
    for axis in range(n):
        cube = np.logical_or.accumulate(cube, axis=axis)
    return cube.reshape(size, n)


def _best(achievable_rows: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """Best agent payoff over the achievable projects, row by row."""
    return np.where(achievable_rows, payoffs, -np.inf).max(axis=-1)


def _honest_bits(sets: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """uint16 (S, A): bit i of [s, a] is set iff project i pays payoff point a
    at least the best over achievable set s, i.e. deciding i is truthful-optimal."""
    (n_sets, n), size = sets.shape, vals.shape[0]
    weights = (1 << np.arange(n)).astype(np.uint16)
    honest = np.empty((n_sets, size), dtype=np.uint16)
    chunk = max(1, _BLOCK_CELLS // (size * n))
    for start in range(0, n_sets, chunk):
        best = _best(sets[start : start + chunk, None, :], vals)  # (C, A)
        top = vals >= best[..., None]  # (C, A, n)
        honest[start : start + chunk] = np.where(top, weights, 0).sum(
            axis=-1, dtype=np.uint16
        )
    return honest


def _first_violation(dec, achievable, vals):
    """Lex-first (p_flat, a_flat) with a strict achievable improvement.

    Truths sharing an achievable set share a row of the honest-bits table, so
    the table is built once per distinct set and gathered in row blocks.
    """
    sets, which = np.unique(achievable, axis=0, return_inverse=True)
    honest = _honest_bits(sets, vals)
    which = which.reshape(-1)
    codes = dec.view(np.uint8)  # entries are 0..n-1 < 16: valid shift counts
    size = dec.shape[0]
    block = max(1, _BLOCK_CELLS // dec.shape[1])
    for start in range(0, size, block):
        stop = min(start + block, size)
        viol = ((honest[which[start:stop]] >> codes[start:stop]) & 1) == 0
        first = int(viol.argmax())  # first True in C order; 0 when there is none
        if viol.flat[first]:
            b, a = divmod(first, viol.shape[1])
            return start + b, a
    return None


def _witness(gm: GridMechanism, vals, reach, achievable, messages, p_flat, a_flat):
    """(truth, report, gain); the report is the lex-first feasible one paying
    the best achievable payoff, so replaying it earns exactly ``gain``."""
    payoff = vals[a_flat]
    best = _best(achievable[p_flat], payoff)
    targets = payoff == best
    rows = (reach & targets).any(axis=1)
    if messages == NO_OVERSELLING:
        rows &= (vals <= vals[p_flat]).all(axis=1)
    pi_flat = int(np.argmax(rows))
    al_flat = int(np.argmax(targets[gm.decisions[pi_flat]]))
    gain = float(best - payoff[gm.decisions[p_flat, a_flat]])
    truth = ValueProfile(vals[p_flat], payoff)
    return truth, Report(vals[pi_flat], vals[al_flat]), gain


def audit_ic(mech, *, messages: str = NO_OVERSELLING) -> AuditReport:
    """Audit a mechanism for incentive compatibility, exhaustively.

    Every truth on the joint lattice is checked against its full deviation
    set; ``checked`` counts the (truth, report) pairs that covers.  A witness
    pairs the lex-first violating truth with the lex-first feasible report
    paying the best achievable payoff, so replaying it gains exactly the
    stated amount.
    """
    gm = _as_grid_mechanism(mech)
    n, k = gm.n_projects, gm.grid_resolution
    size = k**n
    # (truth, report) profit pairs: every pi, or every pi <= p, which is
    # (1 + 2 + ... + k) per axis; each pair is checked at every truth payoff
    # against every payoff report
    if messages == UNRESTRICTED:
        profit_pairs = size * size
    else:
        profit_pairs = (k * (k + 1) // 2) ** n
    checked = profit_pairs * size * size

    reach = _reach(gm)
    achievable = _achievable(reach, k, messages)
    vals = lattice_points(n, k)
    hit = _first_violation(gm.decisions, achievable, vals)
    if hit is None:
        return AuditReport(True, None, checked, True)
    witness = _witness(gm, vals, reach, achievable, messages, *hit)
    return AuditReport(False, witness, checked, True)


def extract_table_structure(mech) -> ExtractionResult:
    """Recover the monotone table behind a mechanism, if there is one.

    The extracted indicator marks project i on the table at p iff some
    feasible deviation from p reaches i.  Extraction succeeds when the
    mechanism's own decisions are the argmax rule of that table everywhere
    (ties resolved any way), which happens exactly when the mechanism is IC.
    """
    gm = _as_grid_mechanism(mech)
    n, k = gm.n_projects, gm.grid_resolution
    achievable = _achievable(_reach(gm), k, NO_OVERSELLING)
    table = TableMechanismGrid(achievable.reshape((k,) * n + (n,)))
    vals = lattice_points(n, k)
    hit = _first_violation(gm.decisions, achievable, vals)
    if hit is None:
        return ExtractionResult(True, table, None)
    return ExtractionResult(False, table, ValueProfile(*(vals[f] for f in hit)))
