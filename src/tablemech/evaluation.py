"""Grid mechanisms and exact discrete expected profit.

A GridMechanism is an arbitrary decision rule on the joint grid: any map
from (profit lattice point, payoff lattice point) to a project index.  This
is the container the incentive auditor consumes, and it can hold rules that
are not table mechanisms at all.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .core import (
    CutoffVector,
    TableMechanismGrid,
    _as_index_array,
    _checked_choices,
    _favorite,
    lattice_points,
)

__all__ = [
    "GridMechanism",
    "exact_discrete_eu",
]

# cap on the cells of any one scratch array in a blocked pass (per-set tables
# here and in the auditor, the auditor's scan blocks)
_BLOCK_CELLS = 1 << 18


class GridMechanism:
    """Dense decision rule on the joint (profit x payoff) lattice.

    ``decisions`` has shape (k^n, k^n) and dtype int8: rows are flattened
    profit points, columns flattened payoff points, both in C order over the n
    axes; entries are project indices in 0..n-1 (the cell guard caps n at 12
    for k >= 2, so int8 always fits).  The constructor copies its input into
    a private read-only array: later writes to the caller's array, or to a
    base it views, do not reach the mechanism.
    """

    _MAX_CELLS = 20_000_000

    def __init__(self, n_projects: int, grid_resolution: int, decisions: np.ndarray):
        size = self._size(n_projects, grid_resolution)
        d = np.asarray(decisions)
        if d.shape != (size, size):
            raise ValueError(
                f"decisions shape {d.shape} != ({size}, {size}) for "
                f"n={n_projects}, k={grid_resolution}"
            )
        if not np.issubdtype(d.dtype, np.integer):
            raise ValueError("decisions must be integers")
        if d.min() < 0 or d.max() >= n_projects:
            raise ValueError(f"decision values must lie in 0..{n_projects - 1}")
        self.n_projects = n_projects
        self.grid_resolution = grid_resolution
        self._dec = d.astype(np.int8, order="C")  # always a fresh copy
        self._dec.setflags(write=False)

    @classmethod
    def _size(cls, n: int, k: int) -> int:
        """k^n, the side of the decision array, once n, k and the cell guard pass."""
        if n < 1:
            raise ValueError("need at least one project")
        if k < 2:
            raise ValueError("grid resolution must be at least 2")
        size = k**n
        if size * size > cls._MAX_CELLS:
            raise ValueError(
                f"dense decision array with {size}^2 cells exceeds the memory guard"
            )
        return size

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_callable(
        cls,
        n: int,
        k: int,
        rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> "GridMechanism":
        """Tabulate a batched rule over the joint lattice.

        ``rule(P, A)`` gets (m, n) profit and payoff arrays, one lattice pair
        per row, and returns m project indices in 0..n-1: the contract
        ``estimate_eu`` uses for callable mechanisms.  It is called on row
        blocks of at most ``_BLOCK_CELLS`` values.
        """
        size = cls._size(n, k)
        vals = lattice_points(n, k)
        dec = np.empty((size, size), dtype=np.int8)
        rows = max(1, _BLOCK_CELLS // (size * n))
        for start in range(0, size, rows):
            p = np.repeat(vals[start : start + rows], size, axis=0)
            a = np.tile(vals, (len(p) // size, 1))
            d = _checked_choices(rule(p, a), len(p), n)
            dec[start : start + rows] = d.reshape(-1, size)
        return cls(n, k, dec)

    @classmethod
    def from_table(cls, table: TableMechanismGrid) -> "GridMechanism":
        """The table's argmax rule, tabulated (lowest index wins payoff ties).

        Profit points sharing an on-table set share a decision row, so one
        argmax row is computed per distinct set and gathered to every point.
        """
        n, k = table.n_projects, table.grid_resolution
        size = k**n
        sets, which = np.unique(
            table.indicators.reshape(size, n), axis=0, return_inverse=True
        )
        vals = lattice_points(n, k)
        rows = np.empty((len(sets), size), dtype=np.int8)
        chunk = max(1, _BLOCK_CELLS // (size * n))
        for start in range(0, len(sets), chunk):
            masks = sets[start : start + chunk, None, :]
            rows[start : start + chunk] = _favorite(masks, vals)
        return cls(n, k, rows[which.reshape(-1)])

    @classmethod
    def from_cutoffs(cls, cutoffs: CutoffVector, k: int) -> "GridMechanism":
        return cls.from_table(TableMechanismGrid.from_cutoffs(cutoffs, k))

    # -- queries ---------------------------------------------------------------

    @property
    def decisions(self) -> np.ndarray:
        return self._dec

    def decide(self, profits, payoffs) -> int:
        r = flatten_index(profits, self.n_projects, self.grid_resolution, "profits")
        c = flatten_index(payoffs, self.n_projects, self.grid_resolution, "payoffs")
        return int(self._dec[r, c])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMechanism):
            return NotImplemented
        return (
            self.n_projects == other.n_projects
            and self.grid_resolution == other.grid_resolution
            and bool(np.array_equal(self._dec, other._dec))
        )

    def __repr__(self) -> str:
        return (
            f"GridMechanism(n_projects={self.n_projects}, "
            f"grid_resolution={self.grid_resolution})"
        )


def flatten_index(values, n: int, k: int, what: str) -> int:
    idx = _as_index_array(values, k, what)
    if idx.shape != (n,):
        raise ValueError(f"expected {n} {what}, got {idx.shape[0]}")
    return int(np.ravel_multi_index(tuple(idx), (k,) * n))


def exact_discrete_eu(mech: Union[GridMechanism, TableMechanismGrid]) -> float:
    """Uniform average of the chosen project's profit over the lattice.

    For a GridMechanism the average runs over the full joint lattice (profit
    and payoff grids enumerated exactly).  For a TableMechanismGrid the agent
    payoffs are integrated out analytically: continuous iid payoffs make each
    on-table project the favorite with equal probability, so each profile
    contributes the mean profit of its on-table set.
    """
    if isinstance(mech, TableMechanismGrid):
        n, k = mech.n_projects, mech.grid_resolution
        vals = lattice_points(n, k)
        masks = mech.indicators.reshape(-1, n)
        rows = max(1, _BLOCK_CELLS // n)
        total = 0.0
        for start in range(0, len(vals), rows):
            m = masks[start : start + rows]
            v = vals[start : start + rows]
            total += float(((v * m).sum(axis=1) / m.sum(axis=1)).sum())
        return total / k**n
    if isinstance(mech, GridMechanism):
        vals = lattice_points(mech.n_projects, mech.grid_resolution)
        chosen = np.take_along_axis(
            vals, mech.decisions, axis=1
        )  # (k^n rows) x (k^n payoff cols): profit of the chosen project
        return float(chosen.mean())
    raise TypeError(f"cannot evaluate {type(mech).__name__}")
