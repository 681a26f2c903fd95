"""Table and cutoff mechanisms for project selection.

Implements, optimizes, audits, and cross-validates the committed selection
rules that survive an informed agent's strategic reporting when profit
claims can be understated but never oversold: monotone "on the table"
indicator mechanisms, their cutoff special case, the optimal single cutoff
and its large-n law, a sequential no-recall benchmark, and the
no-verifiability / full-transfers comparison regimes.
"""

from .core import (
    AuditReport,
    CutoffVector,
    GridError,
    Report,
    TableMechanismGrid,
    ValueProfile,
    cutoff_to_grid,
    decide_table,
)
from .evaluation import GridMechanism, exact_discrete_eu
from .audit import ExtractionResult, audit_ic, extract_table_structure
from .analytic import (
    BracketError,
    NonUniqueRootError,
    OptimalCutoffResult,
    grid_scan_argmax,
    heterogeneous_cutoff_scan,
    multi_cutoff_eu,
    optimal_single_cutoff,
    phi,
    prob_decision,
    single_cutoff_eu,
    symmetry_in_perturbation,
)
from .montecarlo import (
    CHUNK,
    DEFAULT_SEED,
    EstimateWithError,
    estimate_agent_payoff,
    estimate_eu,
    estimate_value,
)
from .dynamics import dynamic_cutoffs, dynamic_profit, sequential_profit_estimate
from .regimes import (
    TransfersBenchmark,
    expected_max_surplus,
    menu_grid_mechanism,
    menu_mechanism_is_ic,
    no_verifiability_eu,
    transfers_eu,
)
from .search import (
    BestTableResult,
    best_table_mechanism_n2,
    indicator_eu_exact,
)
from .serialize import (
    load_mechanism,
    mechanism_from_dict,
    mechanism_to_dict,
    save_mechanism,
)

__version__ = "0.1.0"

__all__ = [
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
    "transfers_eu",
]
