"""One benchmark run: cold set-ups, a timed closed loop checked job by job, paced metrics.

Import this only after ``env.pin()`` and ``env.import_program()``.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import tablemech

import env
import pace
import tracer as tracing
from workloads import WORKLOADS, CliOutput

OUT = env.ROOT / ".bench_out"
RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_SAMPLES = 3  # cold set-ups per untraced run: this process and two fresh ones


def _call(job):
    """(output or exception, raised) of one job."""
    try:
        return job.call(), False
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return exc, True


def _check(job, out, raised) -> str | None:
    """None if the job's output passes its oracle, else why it failed."""
    if raised:
        return f"{job.kind}: raised {type(out).__name__}: {out}"
    try:
        job.check(out)
    except Exception as exc:  # oracle mismatch or malformed output
        return f"{job.kind}: {type(exc).__name__}: {exc}"
    return None


def _timed_loop(jobs, seconds: float | None, failures: list, trace=None, pacer=None):
    """Run jobs back to back until they run out or ``seconds`` of job time pass.

    Each job is checked as soon as it returns, with its timer stopped, and
    only its verdict and latency are kept, so memory does not grow with the
    number of jobs that fit.  With a pacer, the reference work is timed
    between jobs, outside their timers.  Returns (rows, job seconds, most
    Python threads seen); a row is (kind, cycle, slot, latency seconds, passed).
    """
    rows, busy, threads = [], 0.0, threading.active_count()
    lat = 0.0
    for idx, job in enumerate(jobs):
        if seconds is not None and busy >= seconds:
            break
        if pacer is not None:
            pacer.before(idx, lat)
        if trace is not None:
            trace.job = idx
        ts = perf_counter()
        out, raised = _call(job)
        lat = perf_counter() - ts
        busy += lat
        threads = max(threads, threading.active_count())
        if trace is not None and isinstance(out, CliOutput):
            trace.counts["cli.stdout_bytes"] += len(out.stdout.encode())
        reason = _check(job, out, raised)
        if reason:
            failures.append(reason)
        rows.append((job.kind, job.cycle, job.slot, lat, reason is None))
        del job, out
    return rows, busy, threads


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least 10 jobs beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _setup(name, seed, workdir, tiny, tr=None):
    """Build the inputs, write the files, run the warm-up job.

    Returns (workload, warm-up failure or None).  With a tracer, spans are
    recorded around the file writes only, not around the warm-up job.
    """
    wl = WORKLOADS[name](seed, workdir, tiny)
    if tr is not None:
        tr.job = "setup"
        tr.install()
    try:
        wl.setup()
    finally:
        if tr is not None:
            tr.uninstall()
    warm = wl.warmup()
    reason = _check(warm, *_call(warm))
    return wl, reason and "warm-up " + reason


def _workdir(name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    return workdir


def cold_setup(name: str, seed: int, tiny: bool, *, t_start: float) -> dict:
    """Set up once in this fresh process; seconds from ``t_start`` to ready, raw and paced."""
    workdir = _workdir(name)
    try:
        _wl, reason = _setup(name, seed, workdir, tiny)
        raw = perf_counter() - t_start
        return {"setup_s": raw * pace.settle_scale(), "raw_setup_s": raw, "failure": reason}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fresh_setup(name: str, seed: int, tiny: bool) -> dict:
    """``cold_setup`` in a new process of the same entry point, waited for."""
    argv = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--setup-only"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, cwd=env.ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        t_start: float, tiny: bool = False) -> dict:
    """Run one workload; returns the full result record."""
    workdir = _workdir(workload)
    tr = tracing.Tracer(tablemech) if trace else None
    try:
        return _run(workload, seed, seconds, tr, workdir, t_start, tiny)
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, tr, workdir, t_start, tiny) -> dict:
    wl, reason = _setup(name, seed, workdir, tiny, tr)
    setup_own = perf_counter() - t_start
    failures = [reason] if reason else []

    phase = seconds / 2 if tr is not None else seconds
    pacer = pace.Pacer()
    rows, busy, threads = _timed_loop(wl.jobs(), phase, failures, pacer=pacer)
    extra = {}
    if tr is not None:  # replay the same jobs, regenerated from the seed, with spans on
        with tr:
            replay, traced_busy, t2 = _timed_loop(
                itertools.islice(wl.jobs(), len(rows)), None, failures, tr)
        threads = max(threads, t2)
        extra = {"untraced_wall_s": busy, "traced_wall_s": traced_busy,
                 "overhead_s": traced_busy - busy}
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tr.write_spans(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(env.ROOT))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # median of cold set-ups, each from process start to its first job could run;
    # the extra ones run in fresh processes after the timed phase
    setups = [{"setup_s": setup_own * pacer.scale(0), "raw_setup_s": setup_own, "failure": reason}]
    if tr is None:
        setups += [_fresh_setup(name, seed, tiny) for _ in range(SETUP_SAMPLES - 1)]
    failures += [s["failure"] for s in setups[1:] if s["failure"]]
    setup_s = statistics.median(s["setup_s"] for s in setups)

    attempted = len(rows) + (len(replay) if tr is not None else 0) + len(setups)
    failed = len(failures)
    passed = sum(r[4] for r in rows)
    raw = [r[3] for r in rows]
    paced = [x * pacer.scale(i) for i, x in enumerate(raw)]
    tail, pct = _tail(paced)
    e2e = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (passed / sum(paced), "1/s"),
        "job_p50_s": (statistics.median(paced), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_e2e = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "jobs_per_s": passed / busy,
        "job_p50_s": statistics.median(raw),
        "job_tail_s": _tail(raw)[0],
    }
    layers = tracing.layer_metrics(tr, len(rows), extra["overhead_s"], busy) if tr else None
    return {
        "workload": name,
        "seed": seed,
        "trace": tr is not None,
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "metrics": layers if layers is not None else e2e,
        "end_to_end": e2e,
        "jobs": len(rows),
        "cycles": rows[-1][1],
        "slots": len({r[2] for r in rows}),
        "job_tail_percentile": pct,
        "raw_end_to_end": raw_e2e,
        "pace_scale": pacer.run_scale(),
        "pace_timings_s": pacer.times,
        "job_latencies": [r[:4] for r in rows],
        "job_time_s": busy,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "python_threads_max": threads,
        "trace_run": extra,
        "environment": env.record(seed),
    }
