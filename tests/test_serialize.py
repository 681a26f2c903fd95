import json
import os

import numpy as np
import pytest

from tablemech import (
    CutoffVector,
    GridMechanism,
    TableMechanismGrid,
    load_mechanism,
    mechanism_from_dict,
    mechanism_to_dict,
    save_mechanism,
)


def test_cutoff_roundtrip(tmp_path):
    cv = CutoffVector([0.5485837703548635, 0.1])
    path = tmp_path / "cv.json"
    save_mechanism(cv, path)
    back = load_mechanism(path)
    assert isinstance(back, CutoffVector)
    assert back == cv  # floats survive json exactly
    d = json.loads(path.read_text())
    assert d["kind"] == "cutoff"
    assert d["n_projects"] == 3


def test_table_roundtrip(tmp_path):
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5, 0.25]), 5)
    path = tmp_path / "tab.json"
    save_mechanism(tab, path)
    back = load_mechanism(path)
    assert isinstance(back, TableMechanismGrid)
    assert back == tab
    d = json.loads(path.read_text())
    # indicators are stored per project, grid-shaped, as 0/1
    assert len(d["indicators"]) == 3
    assert np.asarray(d["indicators"][0]).shape == (5, 5, 5)


def test_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    gm = GridMechanism(2, 3, rng.integers(0, 2, size=(9, 9)))
    path = tmp_path / "gm.json"
    save_mechanism(gm, path)
    back = load_mechanism(path)
    assert isinstance(back, GridMechanism)
    assert back == gm


def test_kind_inferred_when_missing():
    cv = mechanism_from_dict({"cutoffs": [0.5]})
    assert cv == CutoffVector([0.5])
    tab = TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 3)
    d = mechanism_to_dict(tab)
    del d["kind"]
    assert mechanism_from_dict(d) == tab


def test_payload_consistency_checked():
    with pytest.raises(ValueError):
        mechanism_from_dict({"kind": "cutoff", "n_projects": 3, "cutoffs": [0.5]})
    tab = mechanism_to_dict(TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 3))
    tab["grid_resolution"] = 4
    with pytest.raises(ValueError):
        mechanism_from_dict(tab)
    with pytest.raises(ValueError):
        mechanism_from_dict({"kind": "nonsense"})
    with pytest.raises(ValueError):
        mechanism_from_dict({"foo": 1})


def test_loaded_table_revalidates():
    # hand-built non-monotone payload must be rejected on load
    f0 = [[1, 0], [0, 0]]
    f1 = [[1, 1], [1, 1]]
    with pytest.raises(ValueError, match="monotone"):
        mechanism_from_dict({"kind": "table", "indicators": [f0, f1]})


@pytest.mark.parametrize("bad", [float("nan"), 0.5, 2])
def test_table_indicators_must_be_zero_or_one(bad):
    f1 = [[1, 1], [1, 1]]
    with pytest.raises(ValueError, match="0/1"):
        mechanism_from_dict({"kind": "table", "indicators": [[[bad, 1], [1, 1]], f1]})
    f0 = [[False, 1], [1, True]]
    ok = mechanism_from_dict({"kind": "table", "indicators": [f0, f1]})
    assert ok.indicators[..., 0].tolist() == [[False, True], [True, True]]


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        mechanism_to_dict(object())


def test_save_is_atomic_and_keeps_plain_write_permissions(tmp_path, monkeypatch):
    plain = tmp_path / "plain.json"
    plain.write_text("{}")
    path = tmp_path / "mech.json"
    save_mechanism(CutoffVector([0.5]), path)
    assert path.stat().st_mode == plain.stat().st_mode
    # an existing file is replaced whole and keeps its own mode, as with a plain write
    os.chmod(path, 0o640)
    save_mechanism(CutoffVector([0.25, 0.75]), path)
    assert load_mechanism(path) == CutoffVector([0.25, 0.75])
    assert path.stat().st_mode & 0o777 == 0o640
    assert not list(tmp_path.glob("*.tmp"))
    # a symlinked path is written through, like a plain write, not replaced
    link = tmp_path / "link.json"
    link.symlink_to(path)
    save_mechanism(CutoffVector([0.125]), link)
    assert link.is_symlink() and load_mechanism(path) == CutoffVector([0.125])
    # a write that fails before the rename leaves the old file and no temp file
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        save_mechanism(CutoffVector([0.5]), path)
    assert load_mechanism(path) == CutoffVector([0.125])
    assert not list(tmp_path.glob("*.tmp"))
