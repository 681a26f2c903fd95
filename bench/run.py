"""Benchmark entry point.

    python3 bench/run.py --workload {solve,simulate,audit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Prints a readable summary, then, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The full record goes to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``.  Exits 2 without a
result when the checkout has no ``src/tablemech``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="solve, simulate or audit")
    p.add_argument("--seed", required=True, type=int, help="workload seed (>= 0)")
    p.add_argument("--seconds", required=True, type=float, help="job time of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    # internal: one cold set-up in a fresh process, started by a timed run
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # internal: the self-check's tiny sizes
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def summary(rec: dict) -> str:
    lines = [f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
             f"jobs {rec['jobs']}  attempted {rec['attempted']}  failed {rec['failed']}  "
             f"fail_ratio {rec['fail_ratio']:.6g}"]
    for name, (value, unit) in rec["metrics"].items():
        lines.append(f"  {name:48s} {value:>16.6g} {unit}")
    lines.append(f"  {rec['jobs']} timed jobs, {rec['cycles']} complete cycles of {rec['slots']} "
                 f"slots; job_tail_s is the "
                 f"11th-slowest job, p{rec['job_tail_percentile']:.2f}")
    lines.append("  setup_s is the median of cold set-ups taking "
                 + ", ".join(f"{x:.4f}" for x in rec["setup_samples_s"]) + " paced s")
    lines.append(f"  times are paced (see bench/pace.py); pace scale {rec['pace_scale']:.4f}; raw: "
                 + ", ".join(f"{k} {v:.6g}" for k, v in rec["raw_end_to_end"].items()))
    if rec["trace"]:
        tr = rec["trace_run"]
        lines.append(f"  tracing overhead {tr['overhead_s']:.3f} s "
                     f"({tr['traced_wall_s']:.3f} s traced vs {tr['untraced_wall_s']:.3f} s)")
    e = rec["environment"]
    lines.append(f"  env: nproc {e['nproc']}, python {e['python']}, numpy {e['numpy']}, "
                 f"scipy {e['scipy']}, commit {e['git_commit']}, source {e['source_digest']}")
    for reason in rec["failures"]:
        lines.append(f"  FAILED {reason}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin()
    try:
        env.import_program()
    except env.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(harness.cold_setup(args.workload, args.seed, args.tiny, t_start=T_START)))
        return 0
    rec = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      t_start=T_START, tiny=args.tiny)
    out = harness.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n")
    print(summary(rec))
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
