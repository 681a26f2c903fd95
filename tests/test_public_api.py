"""The public surface: ``__all__`` is pinned, and every name the benchmark's
tracer rebinds still exists where the tracer looks for it."""

import importlib
import importlib.util
from pathlib import Path

import tablemech

PUBLIC = {
    "AuditReport",
    "BestTableResult",
    "BracketError",
    "CHUNK",
    "CutoffVector",
    "DEFAULT_SEED",
    "EstimateWithError",
    "ExtractionResult",
    "GridError",
    "GridMechanism",
    "NonUniqueRootError",
    "OptimalCutoffResult",
    "Report",
    "TableMechanismGrid",
    "TransfersBenchmark",
    "ValueProfile",
    "audit_ic",
    "best_table_mechanism_n2",
    "cutoff_to_grid",
    "decide_table",
    "dynamic_cutoffs",
    "dynamic_profit",
    "enumerate_monotone_indicators",
    "estimate_agent_payoff",
    "estimate_eu",
    "estimate_value",
    "exact_discrete_eu",
    "expected_max_surplus",
    "extract_table_structure",
    "grid_scan_argmax",
    "heterogeneous_cutoff_scan",
    "indicator_eu_exact",
    "load_mechanism",
    "mechanism_from_dict",
    "mechanism_to_dict",
    "menu_grid_mechanism",
    "menu_mechanism_is_ic",
    "multi_cutoff_eu",
    "no_verifiability_eu",
    "optimal_single_cutoff",
    "phi",
    "prob_decision",
    "save_mechanism",
    "sequential_profit_estimate",
    "single_cutoff_eu",
    "symmetry_in_perturbation",
    "threshold_from_diagonal",
    "transfers_eu",
}


def test_all_is_the_kept_set():
    assert len(tablemech.__all__) == len(PUBLIC)
    assert set(tablemech.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(tablemech, name), name


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def submodule(name):
    return importlib.import_module(f"tablemech.{name}")


def test_every_traced_name_exists_in_its_owner():
    tracer = load_tracer()
    owners = [(mod, attr) for mod, attr, _ in tracer._FUNCTIONS]
    owners += [(mod, attr) for mod, attr, _ in tracer._COUNTED]
    owners.append(tracer._DRAWS[:2])
    for mod, attr in owners:
        assert attr in vars(submodule(mod)), f"{mod}.{attr}"
    for mod, cls, attr, _ in tracer._METHODS:
        assert attr in vars(getattr(submodule(mod), cls)), f"{mod}.{cls}.{attr}"
