"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metrics ``BENCHMARK.json``
names, with their units, in a one-second run with tracing off and on; and
that each workload's checks pass on real outputs at tiny sizes and fail on
one tampered output.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            result = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            expect(result.returncode == 0, f"{name} trace={trace} exits 0 ({result.stderr[-300:]})")
            report = json.loads(result.stdout.strip().splitlines()[-1])
            expect(set(report) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} prints the four result keys")
            expect(report["correct"] and report["failed"] == 0 and report["attempted"] >= 1,
                   f"{name} trace={trace} is correct with no failed op")
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            expect(got == want, f"{name} trace={trace} prints every {section} metric with its unit")


def observed_ops(workload, r: int = 0) -> list:
    """Run one round and return each op's observation."""
    return [observe(op()) for op, observe in workload.round(r)]


def check_tampering() -> None:
    P = run.load_program()
    run.OUT.mkdir(exist_ok=True)

    stream = workloads.RefundStream(P, 5, run.OUT, sessions_per_day=3)
    stream.setup()
    observations = observed_ops(stream)
    expect(all(not stream.verify(obs) for obs in observations),
           "refund_stream checks pass on a three-session day")
    obs = observations[-1]
    shifted = dict(obs, gains=dict(obs["gains"], **{
        "customer-fallback": obs["gains"]["customer-fallback"] + 1}))
    expect(bool(stream.verify(shifted)), "refund_stream check fails on a shifted balance")

    mix = workloads.MixTrials(P, 5, run.OUT)
    obs = observed_ops(mix)[0]
    expect(obs["verdicts"] is not None and not mix.verify(obs),
           "mix_trials checks pass on a trial that replays its proofs")
    expect(bool(mix.verify(dict(obs, feasible=obs["feasible"] - 1))),
           "mix_trials check fails on a wrong assignment count")
    expect(bool(mix.finish([obs] * 40)), "mix_trials chance test fails when 40 guesses all agree")
    expect(checks.binomial_two_sided_p(0, 10) == 2 / 1024 and checks.binomial_two_sided_p(5, 10) == 1.0,
           "exact binomial p-values")

    recovery = workloads.RecoveryScan(P, 5, run.OUT, sessions=3, wallet_k=4)
    recovery.setup()
    obs = observed_ops(recovery)[0]
    expect(not recovery.verify(obs), "recovery_scan checks pass on a 3-session, 16-key history")
    flipped = bytearray(obs["rows"][0])
    flipped[40] ^= 1
    expect(bool(recovery.verify({"rows": [bytes(flipped)] + obs["rows"][1:]})),
           "recovery_scan check fails on a flipped byte in a recovered record")


if __name__ == "__main__":
    check_tampering()
    check_printed_metrics()
    print("selftest passed")
