"""Benchmark entry point for refundsim.

    python3 perfbench/run.py --workload refund_stream --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  One run sets up its workload several times and reports the
median set-up time, then runs whole rounds of ops until ``--seconds`` have
passed.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run measures half its time
untraced and half traced and reports the per-layer metrics, writing the
spans under ``perfbench/out/``.  ``--workload all`` runs every workload in
its own process, one after another.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
P90_MIN_OPS = 100
PROGRAM_MODULES = ("curve", "keys", "transactions", "ledger", "protocol", "dispute", "mixer")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def load_program() -> SimpleNamespace:
    """Import refundsim afresh: module bodies run again, curve tables included."""
    for name in [n for n in sys.modules if n == "refundsim" or n.startswith("refundsim.")]:
        del sys.modules[name]
    importlib.import_module("refundsim")
    return SimpleNamespace(
        **{name: importlib.import_module(f"refundsim.{name}") for name in PROGRAM_MODULES}
    )


def set_up(workload_cls, seed: int):
    """Set up ``SETUP_REPEATS`` times; keep the last program and workload.

    The first sample runs from process start, so it includes interpreter
    start-up work in this file and the first import of refundsim's
    dependencies; the later ones re-import refundsim and rebuild the
    workload's fixture.
    """
    samples = []
    start = PROCESS_START
    for _ in range(SETUP_REPEATS):
        P = load_program()
        workload = workload_cls(P, seed, OUT)
        workload.setup()
        now = perf_counter()
        samples.append(now - start)
        start = now
    return workload, statistics.median(samples)


def measure(workload, seconds: float, tracer=None) -> SimpleNamespace:
    """Run whole rounds until ``seconds`` of loop time have passed.

    An op that raises is failed.  An op whose observed outputs fail
    verification is failed and makes the run incorrect.  Observing and
    verifying are not loop time.  Observations are kept only for a
    workload's ``finish``, which checks a run's ops together.
    """
    finish = getattr(workload, "finish", None)
    run = SimpleNamespace(
        durations=[], observations=[], attempted=0, failed=0, problems=[], check_s=0.0
    )
    loop_start = perf_counter()
    r = 0
    while perf_counter() - loop_start - run.check_s < seconds or r == 0:
        for op, observe in workload.round(r):
            run.attempted += 1
            t0 = perf_counter()
            try:
                out = tracer.run_op(op) if tracer else op()
            except Exception:
                run.failed += 1
                print(f"# op {run.attempted} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            duration = perf_counter() - t0
            obs = observe(out)
            problems = workload.verify(obs)
            run.check_s += perf_counter() - t0 - duration
            if problems:
                run.failed += 1
                run.problems += problems
                continue
            run.durations.append(duration)
            if finish:
                run.observations.append(obs)
        r += 1
    run.wall_s = perf_counter() - loop_start - run.check_s
    if finish:
        run.problems += finish(run.observations)
    return run


def summary(name: str, run) -> str:
    done = len(run.durations)
    line = f"# {name}: {done} ops, {run.failed} failed"
    if done >= P90_MIN_OPS:
        p90 = statistics.quantiles(run.durations, n=10)[-1] * 1000
        line += f", op_ms_p90 {p90:.3f} over {done} ops"
    return line


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workload, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(workload.P)
        traced = measure(workload, args.seconds / 2, tracer)
        missing = tracer.missing(workload.required)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        if missing:
            print(f"# traced run recorded no call to: {', '.join(missing)}", file=sys.stderr)
            return 1
        runs = [untraced, traced]
        overhead_ms = (
            statistics.median(traced.durations) - statistics.median(untraced.durations)
        ) * 1000
        values = tracer.per_op(traced.attempted, overhead_ms)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.METRICS.items()
        }
    else:
        run = measure(workload, args.seconds)
        runs = [run]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(run.durations) / run.wall_s,
            "op_ms_p50": statistics.median(run.durations) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    for i, run in enumerate(runs):
        print(summary(args.workload + (" traced" if i else ""), run))
    problems = [p for run in runs for p in run.problems]
    for problem in problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(result.stderr)
        lines = result.stdout.strip().splitlines()
        if result.returncode or not lines:
            print(f"# {name}: exit {result.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        report = json.loads(lines[-1])
        print(f"{name}: correct={report['correct']} attempted={report['attempted']} "
              f"failed={report['failed']}")
        for metric, value in report["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
