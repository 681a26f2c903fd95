"""Core objects: value profiles, table mechanisms on grids, cutoff vectors.

A mechanism chooses one of n projects after an informed agent reports, per
project, a profit for the principal and a payoff for itself.  Profit reports
are evidence-backed and cannot exceed the truth; payoff reports are cheap
talk.  A *table mechanism* is the committed form that survives that reporting
game: monotone 0/1 indicators over profit space put projects "on the table",
and the agent's favorite on-table project is chosen.

Projects are indexed 0..n-1 everywhere; the safe default is the last one.
Grids are uniform lattices {0, 1/(k-1), ..., 1} per axis.  Profit vectors
handed to grid objects must sit exactly on the lattice; off-grid values raise
GridError rather than being snapped silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ValueProfile",
    "Report",
    "TableMechanismGrid",
    "CutoffVector",
    "AuditReport",
    "GridError",
    "decide_table",
    "cutoff_to_grid",
]

# one tolerance for "at most / equal to a lattice value": snapping a value to
# the grid and the no-overselling check accept the same slack
_LATTICE_ATOL = 1e-9


class GridError(ValueError):
    """A value that should lie on the grid lattice does not."""


def _check_unit(values: Sequence[float], what: str) -> None:
    if not all(0.0 <= v <= 1.0 for v in values):  # NaN fails too
        raise ValueError(f"{what} {tuple(values)!r} not all finite and in [0, 1]")


@dataclass(frozen=True)
class ValueProfile:
    """True project values: profit to the principal, payoff to the agent.

    One entry per project, all in [0, 1].
    """

    profits: tuple[float, ...]
    payoffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "profits", tuple(float(p) for p in self.profits))
        object.__setattr__(self, "payoffs", tuple(float(a) for a in self.payoffs))
        if len(self.profits) != len(self.payoffs):
            raise ValueError(
                f"profits has {len(self.profits)} entries, payoffs {len(self.payoffs)}"
            )
        if len(self.profits) == 0:
            raise ValueError("need at least one project")
        _check_unit(self.profits, "profits")
        _check_unit(self.payoffs, "payoffs")

    @property
    def n_projects(self) -> int:
        return len(self.profits)


@dataclass(frozen=True)
class Report:
    """What the agent claims.

    ``feasible_given(truth)`` is the no-overselling check: every claimed
    profit is at most the true one, up to the 1e-9 slack that snapping to the
    grid allows.  Claimed payoffs are never constrained
    (beyond living in [0, 1] like everything else).
    """

    reported_profits: tuple[float, ...]
    reported_payoffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "reported_profits", tuple(float(p) for p in self.reported_profits)
        )
        object.__setattr__(
            self, "reported_payoffs", tuple(float(a) for a in self.reported_payoffs)
        )
        if len(self.reported_profits) != len(self.reported_payoffs):
            raise ValueError(
                f"reported_profits has {len(self.reported_profits)} entries, "
                f"reported_payoffs {len(self.reported_payoffs)}"
            )
        _check_unit(self.reported_profits, "reported_profits")
        _check_unit(self.reported_payoffs, "reported_payoffs")

    @property
    def n_projects(self) -> int:
        return len(self.reported_profits)

    def feasible_given(self, truth: ValueProfile) -> bool:
        if self.n_projects != truth.n_projects:
            return False
        return all(
            r <= t + _LATTICE_ATOL for r, t in zip(self.reported_profits, truth.profits)
        )


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an incentive-compatibility audit.

    ``witness`` is present exactly when ``verdict`` is False: a (truth,
    deviating report, gain) triple whose deviation strictly beats
    truth-telling by ``gain`` in agent payoff.  ``checked`` counts the
    (truth, report) pairs covered.  ``exhaustive`` is always True: every
    audit covers the full message space at every truth.
    """

    verdict: bool
    witness: tuple[ValueProfile, Report, float] | None
    checked: int
    exhaustive: bool

    def __post_init__(self):
        if self.verdict and self.witness is not None:
            raise ValueError("IC verdict cannot carry a witness")
        if not self.verdict:
            if self.witness is None:
                raise ValueError("non-IC verdict requires a witness")
            if not self.witness[2] > 0.0:
                raise ValueError("witness gain must be strictly positive")


def lattice_points(n: int, k: int) -> np.ndarray:
    """All k^n lattice vectors in C order, shape (k^n, n)."""
    grid = np.linspace(0.0, 1.0, k)
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _lattice_floor(values: np.ndarray, k: int) -> np.ndarray:
    """Index of the highest lattice point at most ``values`` + _LATTICE_ATOL."""
    return np.floor((values + _LATTICE_ATOL) * (k - 1)).astype(np.int64)


def _as_index_array(values: Sequence[float], k: int, what: str) -> np.ndarray:
    """Map lattice values to integer grid indices, raising GridError off-lattice."""
    v = np.asarray(values, dtype=float)
    idx = _lattice_floor(v, k)
    if np.any(idx < 0) or np.any(idx > k - 1):
        raise GridError(f"{what} {values!r} outside [0, 1]")
    if not np.all(v - idx / (k - 1) <= _LATTICE_ATOL):  # NaN fails too
        raise GridError(f"{what} {values!r} not on the {k}-point grid")
    return idx


def _favorite(on: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """The agent's favorite on-table project along the last axis, ties low."""
    return np.argmax(np.where(on, payoffs, -np.inf), axis=-1)


def _checked_choices(choices, rows: int, n: int) -> np.ndarray:
    """A decision rule's output, checked to be one index in 0..n-1 per row."""
    d = np.asarray(choices)
    if d.shape != (rows,) or d.dtype.kind not in "iu" or np.any((d < 0) | (d >= n)):
        raise ValueError(f"decision rule must return {rows} indices in 0..{n - 1}")
    return d


class TableMechanismGrid:
    """Monotone on-table indicators over a finite profit grid.

    One indicator per project over the k^n profit lattice, stored densely as
    a boolean array of shape (k,)*n + (n,).  Raising any profit never removes
    a project from the table, and at least one project is on the table at
    every profile (cutoff-built tables keep the last project always on).
    """

    # dense storage is exact and simple; the guard keeps accidental huge
    # allocations out (nothing in the package materializes tables above it)
    _MAX_CELLS = 50_000_000

    def __init__(self, indicators: np.ndarray):
        ind = np.ascontiguousarray(indicators, dtype=bool)
        if ind.ndim < 2:
            raise ValueError("indicators must have shape (k,)*n + (n,)")
        n = ind.shape[-1]
        if ind.ndim != n + 1 or any(s != ind.shape[0] for s in ind.shape[:-1]):
            raise ValueError(
                f"indicator shape {ind.shape} is not (k,)*n + (n,) for n={n}"
            )
        if ind.shape[0] < 2:
            raise ValueError("grid resolution must be at least 2")
        if ind.size > self._MAX_CELLS:
            raise ValueError(
                f"dense table with {ind.size} cells exceeds the memory guard; "
                "use CutoffVector directly for large n"
            )
        self._ind = ind
        self._ind.setflags(write=False)
        self._validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_cutoffs(cls, cutoffs: "CutoffVector", k: int) -> "TableMechanismGrid":
        """Grid table for f_i(p) = [p_i >= c_i]; default project always on."""
        return cls(cutoffs.indicator_grid(k))

    # -- basic properties -----------------------------------------------------

    @property
    def n_projects(self) -> int:
        return self._ind.shape[-1]

    @property
    def grid_resolution(self) -> int:
        return self._ind.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_resolution)

    @property
    def indicators(self) -> np.ndarray:
        """Boolean array, shape (k,)*n + (n,); read-only view."""
        return self._ind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableMechanismGrid):
            return NotImplemented
        return self._ind.shape == other._ind.shape and bool(
            np.array_equal(self._ind, other._ind)
        )

    def __repr__(self) -> str:
        return (
            f"TableMechanismGrid(n_projects={self.n_projects}, "
            f"grid_resolution={self.grid_resolution})"
        )

    # -- invariants -------------------------------------------------------------

    def _validate(self) -> None:
        ind = self._ind
        n = self.n_projects
        for axis in range(n):
            lo = [slice(None)] * (n + 1)
            hi = [slice(None)] * (n + 1)
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            if np.any(ind[tuple(lo)] & ~ind[tuple(hi)]):
                raise ValueError(f"indicator not monotone along profit axis {axis}")
        if not np.any(ind.reshape(-1, n).all(axis=0)):
            raise ValueError("no project is on the table at every profile")

    # -- queries ------------------------------------------------------------------

    def on_table(self, profits: Sequence[float]) -> np.ndarray:
        """Boolean mask of on-table projects at an on-grid profit vector."""
        idx = _as_index_array(profits, self.grid_resolution, "profit vector")
        if idx.shape != (self.n_projects,):
            raise ValueError(f"expected {self.n_projects} profits, got {idx.shape[0]}")
        return self._ind[tuple(idx)]

    def on_table_floor(self, profits: np.ndarray) -> np.ndarray:
        """Masks at arbitrary profits in [0,1]^n, snapping each axis down.

        Accepts profits of shape (..., n) and returns masks of the same
        shape.  A lattice point, or a value within the lattice tolerance
        below one, maps to that point; used by the Monte Carlo driver.
        """
        v = np.asarray(profits, dtype=float)
        if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails too
            raise GridError("profit values outside [0, 1]")
        idx = _lattice_floor(v, self.grid_resolution)
        return self._ind[tuple(np.moveaxis(idx, -1, 0))]


def decide_table(mech: TableMechanismGrid, profile: ValueProfile) -> int:
    """The table decision: agent's favorite among on-table projects.

    Payoff ties go to the lowest project index, making the rule a function.
    """
    if profile.n_projects != mech.n_projects:
        raise ValueError(
            f"profile has {profile.n_projects} projects, mechanism {mech.n_projects}"
        )
    return int(_favorite(mech.on_table(profile.profits), np.asarray(profile.payoffs)))


class CutoffVector:
    """Profit thresholds for the n-1 non-default projects.

    Project i < n-1 is on the table iff p_i >= cutoffs[i]; the last project
    has an implicit cutoff of 0 and is always on.  An empty vector is the
    one-project (default-only) problem.
    """

    def __init__(self, cutoffs: Sequence[float]):
        c = np.asarray(cutoffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("cutoffs must be a 1-d sequence")
        if not np.all((c >= 0.0) & (c <= 1.0)):  # NaN fails too
            raise ValueError(f"cutoffs {cutoffs!r} not all finite and in [0, 1]")
        self._c = c
        self._c.setflags(write=False)

    @classmethod
    def single(cls, n: int, c: float) -> "CutoffVector":
        """Common cutoff c for all non-default projects of an n-project problem."""
        if n < 1:
            raise ValueError("need at least one project")
        return cls([c] * (n - 1))

    @property
    def n_projects(self) -> int:
        return self._c.shape[0] + 1

    @property
    def cutoffs(self) -> np.ndarray:
        """The n-1 explicit cutoffs (read-only)."""
        return self._c

    @property
    def full_cutoffs(self) -> np.ndarray:
        """All n cutoffs including the default's trailing 0."""
        return np.concatenate([self._c, [0.0]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CutoffVector):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    def __repr__(self) -> str:
        return f"CutoffVector({self._c.tolist()!r})"

    def on_table(self, profits: Sequence[float]) -> np.ndarray:
        """Masks at profits of shape (..., n): p_i >= c_i."""
        p = np.asarray(profits, dtype=float)
        if p.shape[-1:] != (self.n_projects,):
            raise ValueError(f"expected {self.n_projects} profits, got {p.shape}")
        return p >= self.full_cutoffs

    def decide(self, profits: Sequence[float], payoffs: Sequence[float]) -> int:
        mask = self.on_table(profits)
        a = np.asarray(payoffs, dtype=float)
        if a.shape != mask.shape:
            raise ValueError(f"expected {self.n_projects} payoffs, got {a.shape}")
        return int(_favorite(mask, a))

    def indicator_grid(self, k: int) -> np.ndarray:
        """Dense boolean indicators of shape (k,)*n + (n,) on the k-grid.

        Grid point p_i is on iff p_i >= c_i - 1e-9, the lattice tolerance:
        a cutoff within it of a lattice point, above or below, turns that
        point on, and any other off-grid cutoff lands on the next point up.
        """
        if k < 2:
            raise ValueError("grid resolution must be at least 2")
        n = self.n_projects
        c = self.full_cutoffs
        j = _lattice_floor(c, k)
        first_on = j + (c - j / (k - 1) > _LATTICE_ATOL)
        ind = np.zeros((k,) * n + (n,), dtype=bool)
        for i, j0 in enumerate(first_on):
            shape = [1] * n
            shape[i] = k
            ind[..., i] = (np.arange(k) >= j0).reshape(shape)
        return ind


def cutoff_to_grid(cutoffs: CutoffVector, k: int) -> TableMechanismGrid:
    """Materialize a cutoff vector as a dense grid table."""
    return TableMechanismGrid.from_cutoffs(cutoffs, k)
