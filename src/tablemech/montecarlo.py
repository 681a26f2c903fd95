"""Seeded Monte Carlo estimation of mechanism performance.

Sampling is counter-based: sample index space is split into fixed chunks of
32768, each chunk gets its own Philox stream keyed by (seed, chunk index),
and per-chunk moments are merged in chunk order.  The estimate is therefore
bit-identical across runs and across thread counts; threads (the
TABLEMECH_THREADS environment variable, a positive integer, at most one per
chunk) only change who computes a chunk, never what it contains.

Per sample of an n-project problem, 2n uniforms are drawn: profits first,
payoffs second.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.random import Generator, Philox

from .core import CutoffVector, TableMechanismGrid

__all__ = [
    "DEFAULT_SEED",
    "CHUNK",
    "EstimateWithError",
    "estimate_value",
    "estimate_eu",
    "estimate_agent_payoff",
    "thread_count",
]

DEFAULT_SEED = 1729
CHUNK = 32768
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class EstimateWithError:
    """Sample mean with its standard error and provenance."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if not self.std_error >= 0.0:
            raise ValueError("standard error must be nonnegative")


def thread_count() -> int:
    """Worker threads to use: TABLEMECH_THREADS, a positive integer; unset is 1."""
    raw = os.environ.get("TABLEMECH_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"TABLEMECH_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _chunk_stats(seed: int, index: int, count: int, n: int, value_fn):
    """(count, mean, M2) of the values over one chunk's samples."""
    key = ((seed & _MASK64) << 64) | index
    gen = Generator(Philox(key=key))
    u = gen.random((count, 2 * n))
    v = np.asarray(value_fn(u[:, :n], u[:, n:]), dtype=float)
    if v.shape != (count,):
        raise ValueError(f"value function returned shape {v.shape}, wanted ({count},)")
    if not np.isfinite(v).all():
        raise ValueError("value function returned a non-finite value")
    mean = float(v.mean())
    m2 = float(((v - mean) ** 2).sum())
    return count, mean, m2


def _merge(a, b):
    """Chan's parallel variance combine; order-fixed by the caller."""
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return n, mean, m2


def estimate_value(
    value_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_projects: int,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> EstimateWithError:
    """Estimate E[value_fn(p, a)] over iid Uniform[0,1]^{2n} profiles.

    ``value_fn`` receives (samples, n) profit and payoff arrays and returns
    one value per sample; it must be a pure function for the determinism
    contract to mean anything.  ``seed`` keys the Philox streams and must lie
    in [0, 2**64).
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if n_projects < 1:
        raise ValueError("need at least one project")
    chunks = []
    full, rem = divmod(n_samples, CHUNK)
    for i in range(full):
        chunks.append((i, CHUNK))
    if rem:
        chunks.append((full, rem))

    workers = min(thread_count(), len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(
                pool.map(
                    lambda c: _chunk_stats(seed, c[0], c[1], n_projects, value_fn),
                    chunks,
                )
            )
    else:
        stats = [_chunk_stats(seed, i, c, n_projects, value_fn) for i, c in chunks]

    total = stats[0]
    for s in stats[1:]:
        total = _merge(total, s)
    count, mean, m2 = total
    if count > 1:
        stderr = (m2 / (count - 1) / count) ** 0.5
    else:
        stderr = 0.0
    return EstimateWithError(mean, stderr, count, seed)


Mechanism = Union[CutoffVector, TableMechanismGrid, Callable]


def _decision_fn(mechanism: Mechanism, n_projects: int):
    """Vectorized (profits, payoffs) -> chosen index array for a mechanism."""
    if isinstance(mechanism, CutoffVector):
        if mechanism.n_projects != n_projects:
            raise ValueError(
                f"mechanism has {mechanism.n_projects} projects, asked for {n_projects}"
            )
        full = mechanism.full_cutoffs

        def decide(p, a):
            return np.argmax(np.where(p >= full, a, -np.inf), axis=1)

        return decide
    if isinstance(mechanism, TableMechanismGrid):
        if mechanism.n_projects != n_projects:
            raise ValueError(
                f"mechanism has {mechanism.n_projects} projects, asked for {n_projects}"
            )

        def decide(p, a):
            mask = mechanism.on_table_floor(p)
            return np.argmax(np.where(mask, a, -np.inf), axis=1)

        return decide
    if callable(mechanism):

        def decide(p, a):
            d = np.asarray(mechanism(p, a))
            if d.shape != (p.shape[0],):
                raise ValueError("decision callback must return one index per sample")
            if np.any(d < 0) or np.any(d >= n_projects):
                raise ValueError("decision callback returned an out-of-range index")
            return d

        return decide
    raise TypeError(f"cannot simulate {type(mechanism).__name__}")


def _infer_n(mechanism: Mechanism, n_projects: int | None) -> int:
    if n_projects is not None:
        return n_projects
    known = getattr(mechanism, "n_projects", None)
    if known is None:
        raise ValueError("n_projects is required for callable mechanisms")
    return known


def estimate_eu(
    mechanism: Mechanism,
    n_projects: int | None = None,
    n_samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> EstimateWithError:
    """Expected principal profit of a mechanism, by simulation.

    Cutoff mechanisms are evaluated directly in continuous space (favorite
    among projects clearing their bars, default always available); grid
    tables snap profits down to their lattice.  ``n_projects`` may be omitted
    for mechanisms that know their own size.
    """
    n_projects = _infer_n(mechanism, n_projects)
    decide = _decision_fn(mechanism, n_projects)

    def value(p, a):
        return p[np.arange(p.shape[0]), decide(p, a)]

    return estimate_value(value, n_projects, n_samples, seed)


def estimate_agent_payoff(
    mechanism: Mechanism,
    n_projects: int | None = None,
    n_samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> EstimateWithError:
    """Expected agent payoff a_{d(p,a)} of a mechanism, by simulation."""
    n_projects = _infer_n(mechanism, n_projects)
    decide = _decision_fn(mechanism, n_projects)

    def value(p, a):
        return a[np.arange(p.shape[0]), decide(p, a)]

    return estimate_value(value, n_projects, n_samples, seed)
