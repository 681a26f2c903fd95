"""Grid mechanisms and exact discrete expected profit.

A GridMechanism is an arbitrary decision rule on the joint grid: any map
from (profit lattice point, payoff lattice point) to a project index.  This
is the container the incentive auditor consumes, and it can hold rules that
are not table mechanisms at all.
"""

from __future__ import annotations

import itertools
from typing import Callable, Union

import numpy as np

from .core import CutoffVector, TableMechanismGrid, _as_index_array

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
        if n_projects < 1:
            raise ValueError("need at least one project")
        if grid_resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        size = grid_resolution**n_projects
        if size * size > self._MAX_CELLS:
            raise ValueError(
                f"dense decision array with {size}^2 cells exceeds the memory guard"
            )
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

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_callable(
        cls,
        n: int,
        k: int,
        rule: Callable[[np.ndarray, np.ndarray], int],
    ) -> "GridMechanism":
        """Tabulate rule(profits, payoffs) -> index over the joint lattice."""
        grid = np.linspace(0.0, 1.0, k)
        pts = [grid[list(m)] for m in itertools.product(range(k), repeat=n)]
        size = k**n
        dec = np.empty((size, size), dtype=np.int64)
        for r, p in enumerate(pts):
            for c, a in enumerate(pts):
                dec[r, c] = rule(p, a)
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
            rows[start : start + chunk] = np.argmax(
                np.where(masks, vals, -np.inf), axis=2
            )
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


def lattice_points(n: int, k: int) -> np.ndarray:
    """All k^n lattice vectors in C order, shape (k^n, n)."""
    grid = np.linspace(0.0, 1.0, k)
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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
        grid = np.linspace(0.0, 1.0, k)
        # slice along the first profit axis to keep memory at O(k^{n-1})
        if n == 1:
            rest = np.zeros((1, 0))
        else:
            rest = lattice_points(n - 1, k)
        ind = mech.indicators.reshape(k, k ** (n - 1), n)
        total = 0.0
        for i in range(k):
            vals = np.concatenate(
                [np.full((rest.shape[0], 1), grid[i]), rest], axis=1
            )
            masks = ind[i]
            counts = masks.sum(axis=1)
            total += float(((vals * masks).sum(axis=1) / counts).sum())
        return total / k**n
    if isinstance(mech, GridMechanism):
        vals = lattice_points(mech.n_projects, mech.grid_resolution)
        chosen = np.take_along_axis(
            vals, mech.decisions, axis=1
        )  # (k^n rows) x (k^n payoff cols): profit of the chosen project
        return float(chosen.mean())
    raise TypeError(f"cannot evaluate {type(mech).__name__}")
