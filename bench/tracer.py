"""Spans around the package's public functions, installed from outside ``src``.

Each wrapped name is rebound in the module where its caller looks it up
(``tablemech.cli.audit_ic``, ``tablemech.regimes.estimate_value``, ...), and
class methods are rebound on their class, so the package itself is never
edited.  A span is (id, parent id, job id, name, start, end); spans stay in
memory and are written out once, when the run ends.  Everything runs on one
thread (``TABLEMECH_THREADS=1``), so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name): rebind ``attribute`` of ``tablemech.<module>``
_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "optimal_single_cutoff", "analytic.optimal_single_cutoff"),
    ("cli", "audit_ic", "audit.audit_ic"),
    ("cli", "cutoff_to_grid", "core.cutoff_to_grid"),
    ("cli", "dynamic_cutoffs", "dynamics.dynamic_cutoffs"),
    ("cli", "dynamic_profit", "dynamics.dynamic_profit"),
    ("cli", "estimate_eu", "montecarlo.estimate_eu"),
    ("cli", "estimate_agent_payoff", "montecarlo.estimate_agent_payoff"),
    ("cli", "no_verifiability_eu", "regimes.no_verifiability_eu"),
    ("cli", "transfers_eu", "regimes.transfers_eu"),
    ("cli", "best_table_mechanism_n2", "search.best_table_mechanism_n2"),
    ("cli", "load_mechanism", "serialize.load_mechanism"),
    ("analytic", "prob_decision", "analytic.prob_decision"),
    ("analytic", "multi_cutoff_eu", "analytic.multi_cutoff_eu"),
    ("analytic", "single_cutoff_eu", "analytic.single_cutoff_eu"),
    ("analytic", "optimal_single_cutoff", "analytic.optimal_single_cutoff"),
    ("analytic", "symmetry_in_perturbation", "analytic.symmetry_in_perturbation"),
    ("analytic", "heterogeneous_cutoff_scan", "analytic.heterogeneous_cutoff_scan"),
    ("montecarlo", "estimate_value", "montecarlo.estimate_value"),
    ("regimes", "estimate_value", "montecarlo.estimate_value"),
    ("dynamics", "estimate_value", "montecarlo.estimate_value"),
    ("core", "cutoff_to_grid", "core.cutoff_to_grid"),
    ("evaluation", "lattice_points", "evaluation.lattice_points"),
    ("audit", "lattice_points", "evaluation.lattice_points"),
    ("audit", "extract_table_structure", "audit.extract_table_structure"),
    ("regimes", "audit_ic", "audit.audit_ic"),
    ("regimes", "transfers_eu", "regimes.transfers_eu"),
    ("regimes", "expected_max_surplus", "regimes.expected_max_surplus"),
    ("regimes", "menu_grid_mechanism", "regimes.menu_grid_mechanism"),
    ("regimes", "menu_mechanism_is_ic", "regimes.menu_mechanism_is_ic"),
    ("dynamics", "dynamic_cutoffs", "dynamics.dynamic_cutoffs"),
    ("dynamics", "dynamic_profit", "dynamics.dynamic_profit"),
    ("dynamics", "sequential_profit_estimate", "dynamics.sequential_profit_estimate"),
    ("serialize", "save_mechanism", "serialize.save_mechanism"),
]

# (module, class, attribute, span name): methods and class methods
_METHODS = [
    ("core", "TableMechanismGrid", "on_table_floor", "core.TableMechanismGrid.on_table_floor"),
    ("evaluation", "GridMechanism", "from_table", "evaluation.GridMechanism.from_table"),
    ("evaluation", "GridMechanism", "from_callable", "evaluation.GridMechanism.from_callable"),
]

# phi takes about a microsecond, so it is counted, not spanned
_COUNTED = [("analytic", "phi", "analytic.phi.calls")]

# every variate drawn through the random generators that ``montecarlo`` builds
_DRAWS = ("montecarlo", "Generator", "montecarlo.estimate_value.uniforms")


def _counting_generator(cls, counts, key):
    """A stand-in for the generator class ``cls`` that counts what each draw returns."""

    class CountingGenerator:
        def __init__(self, *args, **kwargs):
            self._gen = cls(*args, **kwargs)

        def __getattr__(self, attr):
            value = getattr(self._gen, attr)
            if not callable(value):
                return value

            def draw(*args, **kwargs):
                out = value(*args, **kwargs)
                counts[key] += np.size(out)
                return out

            return draw

    return CountingGenerator


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list = []
        self._hooks = {
            "montecarlo.estimate_value": (self._before_estimate, None),
            "core.cutoff_to_grid": (None, self._count_cells("core.cutoff_to_grid.cells", "indicators")),
            "evaluation.GridMechanism.from_table": (
                None, self._count_cells("evaluation.GridMechanism.from_table.cells", "decisions")),
            "evaluation.GridMechanism.from_callable": (
                None, self._count_cells("evaluation.GridMechanism.from_callable.cells", "decisions")),
            "audit.audit_ic": (None, self._after_audit),
            "search.best_table_mechanism_n2": (None, self._after_search),
            "serialize.load_mechanism": (self._before_load, None),
        }

    # -- wrapping ---------------------------------------------------------------

    def traced(self, name: str, fn):
        before, after = self._hooks.get(name, (None, None))
        sig = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[name]:  # re-entry: the outer span already covers it
                return fn(*args, **kwargs)
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.job, name, t0, t1)
            if after is not None:
                after(result, t1 - t0)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _before_estimate(self, arguments) -> None:
        self.counts["montecarlo.estimate_value.samples"] += arguments["n_samples"]
        arguments["value_fn"] = self.traced("montecarlo.value_fn", arguments["value_fn"])

    def _count_cells(self, key: str, attr: str):
        def after(result, _dt):
            self.counts[key] += getattr(result, attr).size

        return after

    def _after_audit(self, report, dt) -> None:
        self.counts["audit.pairs_checked"] += report.checked
        verdict = "pass" if report.verdict else "fail"
        self.counts[f"audit.audit_ic.{verdict}.busy_s"] += dt

    def _after_search(self, result, _dt) -> None:
        self.counts["search.candidates"] += result.n_candidates

    def _before_load(self, arguments) -> None:
        self.counts["serialize.load_mechanism.bytes"] += os.path.getsize(arguments["path"])

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        for mod, attr, name in _FUNCTIONS:
            owner = getattr(pkg, mod)
            self._rebind(owner, attr, self.traced(name, owner.__dict__[attr]))
        for mod, attr, name in _COUNTED:
            owner = getattr(pkg, mod)
            self._rebind(owner, attr, self._counted(name, owner.__dict__[attr]))
        mod, attr, key = _DRAWS
        owner = getattr(pkg, mod)
        self._rebind(owner, attr, _counting_generator(owner.__dict__[attr], self.counts, key))
        for mod, cls_name, attr, name in _METHODS:
            owner = getattr(getattr(pkg, mod), cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._rebind(owner, attr, classmethod(self.traced(name, raw.__func__)))
            else:
                self._rebind(owner, attr, self.traced(name, raw))

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(calls, busy seconds, self seconds) per span name."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, _job, name, t0, t1 in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
            if parent is not None:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for sid, _parent, _job, name, t0, t1 in self.spans:
            own[name] += (t1 - t0) - child[sid]
        return calls, busy, own

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, jobs: int, overhead_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    calls, busy, own = tracer.totals()
    c = tracer.counts
    ev_busy = busy["montecarlo.estimate_value"]
    audit_busy = busy["audit.audit_ic"]
    search_busy = busy["search.best_table_mechanism_n2"]
    s, n = "s", "count"
    return {
        "analytic.prob_decision.calls": (calls["analytic.prob_decision"], n),
        "analytic.prob_decision.busy_s": (busy["analytic.prob_decision"], s),
        "analytic.multi_cutoff_eu.self_s": (own["analytic.multi_cutoff_eu"], s),
        "analytic.optimal_single_cutoff.calls": (calls["analytic.optimal_single_cutoff"], n),
        "analytic.optimal_single_cutoff.busy_s": (busy["analytic.optimal_single_cutoff"], s),
        "analytic.single_cutoff_eu.busy_s": (busy["analytic.single_cutoff_eu"], s),
        "analytic.phi.calls": (c["analytic.phi.calls"], n),
        "montecarlo.estimate_value.calls": (calls["montecarlo.estimate_value"], n),
        "montecarlo.estimate_value.busy_s": (ev_busy, s),
        "montecarlo.estimate_value.samples": (c["montecarlo.estimate_value.samples"], n),
        "montecarlo.estimate_value.uniforms": (c["montecarlo.estimate_value.uniforms"], n),
        "montecarlo.value_fn.busy_s": (busy["montecarlo.value_fn"], s),
        "montecarlo.draw_merge_s": (ev_busy - busy["montecarlo.value_fn"], s),
        "montecarlo.samples_per_s": (_rate(c["montecarlo.estimate_value.samples"], ev_busy), "1/s"),
        "core.TableMechanismGrid.on_table_floor.calls": (
            calls["core.TableMechanismGrid.on_table_floor"], n),
        "core.TableMechanismGrid.on_table_floor.busy_s": (
            busy["core.TableMechanismGrid.on_table_floor"], s),
        "core.cutoff_to_grid.busy_s": (busy["core.cutoff_to_grid"], s),
        "core.cutoff_to_grid.cells": (c["core.cutoff_to_grid.cells"], n),
        "evaluation.GridMechanism.from_table.busy_s": (busy["evaluation.GridMechanism.from_table"], s),
        "evaluation.GridMechanism.from_table.cells": (c["evaluation.GridMechanism.from_table.cells"], n),
        "evaluation.GridMechanism.from_callable.busy_s": (
            busy["evaluation.GridMechanism.from_callable"], s),
        "evaluation.GridMechanism.from_callable.cells": (
            c["evaluation.GridMechanism.from_callable.cells"], n),
        "evaluation.lattice_points.busy_s": (busy["evaluation.lattice_points"], s),
        "audit.audit_ic.calls": (calls["audit.audit_ic"], n),
        "audit.audit_ic.self_s": (own["audit.audit_ic"], s),
        "audit.audit_ic.pass.busy_s": (c["audit.audit_ic.pass.busy_s"], s),
        "audit.audit_ic.fail.busy_s": (c["audit.audit_ic.fail.busy_s"], s),
        "audit.pairs_checked": (c["audit.pairs_checked"], n),
        "audit.pairs_per_s": (_rate(c["audit.pairs_checked"], audit_busy), "1/s"),
        "audit.extract_table_structure.busy_s": (busy["audit.extract_table_structure"], s),
        "search.best_table_mechanism_n2.busy_s": (search_busy, s),
        "search.candidates": (c["search.candidates"], n),
        "search.candidates_per_s": (_rate(c["search.candidates"], search_busy), "1/s"),
        "regimes.transfers_eu.busy_s": (busy["regimes.transfers_eu"], s),
        "regimes.expected_max_surplus.busy_s": (busy["regimes.expected_max_surplus"], s),
        "regimes.menu_grid_mechanism.busy_s": (busy["regimes.menu_grid_mechanism"], s),
        "regimes.menu_mechanism_is_ic.busy_s": (busy["regimes.menu_mechanism_is_ic"], s),
        "dynamics.dynamic_profit.busy_s": (busy["dynamics.dynamic_profit"], s),
        "dynamics.sequential_profit_estimate.busy_s": (
            busy["dynamics.sequential_profit_estimate"], s),
        "serialize.load_mechanism.busy_s": (busy["serialize.load_mechanism"], s),
        "serialize.load_mechanism.bytes": (c["serialize.load_mechanism.bytes"], "bytes"),
        "serialize.save_mechanism.busy_s": (busy["serialize.save_mechanism"], s),
        "cli.main.calls": (calls["cli.main"], n),
        "cli.main.busy_s": (busy["cli.main"], s),
        "cli.self_s": (own["cli.main"], s),
        "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
        "trace.jobs": (jobs, n),
        "trace.spans": (len(tracer.spans), n),
        "trace.overhead_s": (overhead_s, s),
        "trace.overhead_share": (_rate(overhead_s, untraced_wall_s), "ratio"),
    }
