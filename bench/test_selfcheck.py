"""Self-check of the benchmark at tiny sizes.

    python3 -m pytest bench -q

Every named metric must be emitted with its unit on every workload, the
oracles must reject a deliberately wrong expected value, pacing must cancel
a change in the machine's speed, and the entry point must fail without a
result when the checkout holds no program.
"""

import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import env
import pace

env.pin()
tablemech = env.import_program()

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name: str, trace: bool) -> dict:
    return harness.run(name, 3, 0.4, trace, t_start=perf_counter(), tiny=True)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    owners = [getattr(tablemech, m) for m, *_ in tracer._FUNCTIONS]
    owners += [getattr(getattr(tablemech, m), c) for m, c, *_ in tracer._METHODS]
    originals = [(o, dict(vars(o))) for o in owners]
    rec = tiny_run(name, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: u for k, (_v, u) in rec["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v, _u in rec["metrics"].values())
    assert rec["failed"] == 0, rec["failures"]
    assert rec["jobs"] >= 1
    for owner, names in originals:  # the tracer put every binding back
        assert dict(vars(owner)) == names


def test_uniforms_are_counted_from_the_draws():
    tr = tracer.Tracer(tablemech)
    with tr:
        tablemech.montecarlo.estimate_value(lambda p, a: p[:, 0], 3, 40_000, seed=5)
    assert tr.counts["montecarlo.estimate_value.uniforms"] == 2 * 3 * 40_000
    assert tr.counts["montecarlo.estimate_value.samples"] == 40_000


def test_memory_does_not_hold_job_outputs():
    jobs = [workloads.Job("big", lambda: b"x" * (64 << 20), lambda out: None) for _ in range(4)]
    rss = harness.resource.getrusage(harness.resource.RUSAGE_SELF).ru_maxrss
    rows, _busy, _threads = harness._timed_loop(iter(jobs), None, [])
    grown = harness.resource.getrusage(harness.resource.RUSAGE_SELF).ru_maxrss - rss
    assert len(rows) == 4 and grown < 128 << 10  # KiB: one output alive at a time, not four


def test_pacing_cancels_a_slower_spell(monkeypatch):
    timings = iter([pace.REFERENCE_S] * 20 + [2 * pace.REFERENCE_S] * 20)
    monkeypatch.setattr(pace, "reference", lambda: next(timings))
    pacer = pace.Pacer()
    for idx in range(40):
        pacer.before(idx, pace.EVERY_S)
    assert pacer.scale(0) == 1.0 and pacer.scale(39) == 0.5


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


# one oracle per workload, each consulted by the warm-up job and by timed jobs
WRONG = {"solve": "eu_closed", "simulate": "agent_payoff_closed", "audit": "pair_count"}


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_expected_value_raises_fail_ratio(name, monkeypatch):
    attr = WRONG[name]
    monkeypatch.setattr(workloads, attr, _off_by_one(getattr(workloads, attr)))
    rec = tiny_run(name, False)
    assert rec["failed"] >= 1 and rec["fail_ratio"] > 0
    assert not rec["correct"]


def test_fails_without_a_result_when_the_program_is_missing():
    bare = harness.OUT / "bare-checkout"  # only BENCHMARK.json and the benchmark's paths
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(env.ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
