"""Sequential selection without recall: the dynamic benchmark.

Projects arrive one at a time; each is irrevocably taken or passed.  The
value of continuing past project i is the cutoff c_i, solved backward from
the last project:

    c_n = 0,   c_{i-1} = c_i + (1/2) (1 - c_i)^3

Project i is taken iff both its profit and the agent's payoff clear c_i
(the agent must also prefer stopping, which is what keeps the rule
implementable without commitment to a table).  The principal's profit is
the first cutoff's continuation value, i.e. one more recursion step.
"""

from __future__ import annotations

import numpy as np

from .montecarlo import DEFAULT_SEED, EstimateWithError, estimate_value

__all__ = ["dynamic_cutoffs", "dynamic_profit", "sequential_profit_estimate"]


def dynamic_cutoffs(n: int) -> np.ndarray:
    """Backward-induction cutoffs in project order, last entry 0."""
    if n < 1:
        raise ValueError("need at least one project")
    c = np.zeros(n)
    for i in range(n - 2, -1, -1):
        nxt = c[i + 1]
        c[i] = nxt + 0.5 * (1.0 - nxt) ** 3
    return c


def dynamic_profit(n: int) -> float:
    """Principal's expected profit from the sequential rule.

    The value of facing n projects is the continuation value one step before
    the first, i.e. the first cutoff of an (n+1)-project ladder.
    """
    return float(dynamic_cutoffs(n + 1)[0])


def sequential_profit_estimate(
    n: int, n_samples: int, seed: int = DEFAULT_SEED
) -> EstimateWithError:
    """Simulate the accept/reject process directly (independent of the formula)."""
    cuts = dynamic_cutoffs(n)

    def value(p, a):
        ok = (p >= cuts) & (a >= cuts)
        first = np.argmax(ok, axis=1)  # last column is always acceptable
        return p[np.arange(p.shape[0]), first]

    return estimate_value(value, n, n_samples, seed)
