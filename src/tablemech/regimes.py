"""Comparison regimes: no verifiability at all, and full transfers.

Without any evidence behind profit reports, every incentive-compatible
mechanism collapses to a menu: the principal fixes a set S of projects and
the agent takes its favorite.  Profits and payoffs are independent, so the
principal's expected profit is the unconditional mean 1/2 however S is
chosen.

With transfers and ex-post verifiability, the principal sells the firm: the
agent pays a fixed fee equal to the full expected surplus E[max_i (p_i+a_i)],
then picks the surplus-maximizing project, netting zero in expectation.  An
outcome-equivalent variant pays the transfer out of reported values
(t = pi_d - fee) instead of charging the fee upfront; only the bookkeeping
differs.  The fee is exact (``expected_max_surplus``, by a recurrence);
``transfers_eu`` checks it against a simulation of the regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .audit import UNRESTRICTED, audit_ic
from .core import TableMechanismGrid
from .evaluation import GridMechanism
from .montecarlo import DEFAULT_SEED, EstimateWithError, estimate_value

__all__ = [
    "TransfersBenchmark",
    "no_verifiability_eu",
    "menu_grid_mechanism",
    "menu_mechanism_is_ic",
    "expected_max_surplus",
    "transfers_eu",
]


def _menu_mask(menu: Iterable[int], n: int) -> np.ndarray:
    s = sorted(set(int(i) for i in menu))
    if not s:
        raise ValueError("menu must be nonempty")
    if s[0] < 0 or s[-1] >= n:
        raise ValueError(f"menu {s} not within 0..{n - 1}")
    mask = np.zeros(n, dtype=bool)
    mask[s] = True
    return mask


def no_verifiability_eu(n: int) -> float:
    """Principal's profit ceiling without verifiable reports: exactly 1/2."""
    if n < 1:
        raise ValueError("need at least one project")
    return 0.5


def menu_grid_mechanism(menu: Iterable[int], n: int, k: int) -> GridMechanism:
    """The menu rule d(p, a) = favorite in the menu: a constant table, tabulated."""
    mask = _menu_mask(menu, n)
    table = TableMechanismGrid(np.broadcast_to(mask, (k,) * n + (n,)))
    return GridMechanism.from_table(table)


def menu_mechanism_is_ic(menu: Iterable[int], n: int, k: int) -> bool:
    """Audit a menu rule under the unrestricted message space."""
    return audit_ic(menu_grid_mechanism(menu, n, k), messages=UNRESTRICTED).verdict


def expected_max_surplus(n: int) -> float:
    """E[max_i (p_i + a_i)], each p_i + a_i triangular on [0, 2].

    The tail 1 - F(s)^n integrates to 1 - 1/(2^n (2n+1)) on [0, 1] and to
    1 - I_n on [1, 2], with I_n = int_0^1 (1 - t^2/2)^n dt.  Integrating by
    parts gives I_n = (2^-n + 2n I_{n-1}) / (2n + 1) from I_0 = 1, a
    recurrence that shrinks any rounding error it carries.
    """
    if n < 1:
        raise ValueError("need at least one project")
    integral = 1.0
    for j in range(1, n + 1):
        integral = (0.5**j + 2 * j * integral) / (2 * j + 1)
    return 2.0 - (0.5**n / (2 * n + 1) + integral)


@dataclass(frozen=True)
class TransfersBenchmark:
    """Simulated transfers regime: full-surplus extraction, zero agent net.

    ``principal`` estimates E[max_i(p_i + a_i)], what the fee hands the
    principal; ``agent_net`` estimates the agent's realized surplus minus the
    independently computed ``fee`` — the two sides use different machinery,
    so agent_net hovering at 0 is a real check, not an identity.
    """

    principal: EstimateWithError
    agent_net: EstimateWithError
    fee: float


def transfers_eu(n: int, n_samples: int, seed: int = DEFAULT_SEED) -> TransfersBenchmark:
    """Benchmark the selling-the-firm mechanism: simulation against the exact fee."""
    fee = expected_max_surplus(n)

    def surplus(p, a):
        return (p + a).max(axis=1)

    principal = estimate_value(surplus, n, n_samples, seed)
    agent_net = EstimateWithError(
        principal.mean - fee, principal.std_error, principal.n_samples, seed
    )
    return TransfersBenchmark(principal, agent_net, fee)
