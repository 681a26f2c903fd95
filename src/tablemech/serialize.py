"""Lossless JSON (de)serialization for mechanisms.

Cutoff form:  {"kind": "cutoff", "n_projects": n, "cutoffs": [n-1 floats]}
Table form:   {"kind": "table", "n_projects": n, "grid_resolution": k,
               "indicators": n nested 0/1 arrays, each of shape (k,)*n,
               row-major}
Grid form:    {"kind": "grid", "n_projects": n, "grid_resolution": k,
               "decisions": (k^n) x (k^n) nested array of project indices,
               rows = flattened profit points, columns = flattened payoff
               points, both C order}

"kind" is written on save and may be omitted on load; the payload's fields
decide.  Floats survive round-trips exactly (json emits shortest-repr
doubles).
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Union

import numpy as np

from .core import CutoffVector, TableMechanismGrid
from .evaluation import GridMechanism

__all__ = [
    "mechanism_to_dict",
    "mechanism_from_dict",
    "save_mechanism",
    "load_mechanism",
]

Mechanism = Union[CutoffVector, TableMechanismGrid, GridMechanism]


def mechanism_to_dict(mech: Mechanism) -> dict:
    if isinstance(mech, CutoffVector):
        return {
            "kind": "cutoff",
            "n_projects": mech.n_projects,
            "cutoffs": [float(c) for c in mech.cutoffs],
        }
    if isinstance(mech, TableMechanismGrid):
        per_project = np.moveaxis(mech.indicators, -1, 0).astype(int)
        return {
            "kind": "table",
            "n_projects": mech.n_projects,
            "grid_resolution": mech.grid_resolution,
            "indicators": per_project.tolist(),
        }
    if isinstance(mech, GridMechanism):
        return {
            "kind": "grid",
            "n_projects": mech.n_projects,
            "grid_resolution": mech.grid_resolution,
            "decisions": mech.decisions.tolist(),
        }
    raise TypeError(f"cannot serialize {type(mech).__name__}")


def _infer_kind(d: dict) -> str:
    if "cutoffs" in d:
        return "cutoff"
    if "indicators" in d:
        return "table"
    if "decisions" in d:
        return "grid"
    raise ValueError("cannot infer mechanism kind from payload")


def mechanism_from_dict(d: dict) -> Mechanism:
    kind = d.get("kind") or _infer_kind(d)
    if kind == "cutoff":
        cv = CutoffVector(d["cutoffs"])
        if "n_projects" in d and cv.n_projects != d["n_projects"]:
            raise ValueError(
                f"n_projects={d['n_projects']} but {len(d['cutoffs'])} cutoffs given"
            )
        return cv
    if kind == "table":
        raw = np.asarray(d["indicators"])
        if not np.isin(raw, (0, 1)).all():  # bool() would read NaN or 0.5 as on
            raise ValueError("table indicators must all be 0/1 or true/false")
        per_project = raw.astype(bool)
        tab = TableMechanismGrid(np.moveaxis(per_project, 0, -1))
        if "n_projects" in d and tab.n_projects != d["n_projects"]:
            raise ValueError(
                f"n_projects={d['n_projects']} but indicator shape {per_project.shape}"
            )
        if "grid_resolution" in d and tab.grid_resolution != d["grid_resolution"]:
            raise ValueError(
                f"grid_resolution={d['grid_resolution']} but indicator shape "
                f"{per_project.shape}"
            )
        return tab
    if kind == "grid":
        return GridMechanism(
            d["n_projects"], d["grid_resolution"], np.asarray(d["decisions"])
        )
    raise ValueError(f"unknown mechanism kind {kind!r}")


def _write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` by renaming a temp file over it, leaving the
    permissions a plain write would: an existing file's mode, else 0o666 less umask."""
    path = Path(path).resolve()  # through a symlink, as a plain write goes
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        if path.exists():
            os.chmod(tmp, path.stat().st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_mechanism(mech: Mechanism, path: str | Path) -> None:
    """Write the mechanism's JSON form atomically."""
    _write_atomic(path, json.dumps(mechanism_to_dict(mech), indent=2) + "\n")


def load_mechanism(path: str | Path) -> Mechanism:
    return mechanism_from_dict(json.loads(Path(path).read_text()))
