"""Reference sweep of the recovery_scan op over history and wallet size.

    python3 perfbench/sweep_recovery.py [--seed 1] [--ops 3]

Prints one markdown table row per (sessions, wallet_k) in {3, 10} x {8, 10}:
fixture build time, median op time over ``--ops`` ops, and the recovery
telemetry of one op.  The figures are for reference and are not gated.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=3)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    P = run.load_program()
    print("| sessions | wallet_k | set-up s | op ms (median) | key_ops | search_ops |")
    print("| ---: | ---: | ---: | ---: | ---: | ---: |")
    for sessions in (3, 10):
        for wallet_k in (8, 10):
            workload = workloads.RecoveryScan(P, args.seed, run.OUT, sessions, wallet_k)
            t0 = perf_counter()
            workload.setup()
            setup_s = perf_counter() - t0
            durations = []
            for _ in range(args.ops):
                op, observe = next(iter(workload.round(0)))
                t0 = perf_counter()
                out = op()
                durations.append((perf_counter() - t0) * 1000)
                if workload.verify(observe(out)):
                    raise SystemExit(f"recovery check failed at {sessions}x2^{wallet_k}")
            wallet = P.protocol.MerchantWallet(workload.merchant_seed + b"/wallet", 2**wallet_k)
            telemetry = P.dispute.recover_database(wallet, workload.ledger).telemetry
            print(f"| {sessions} | {wallet_k} | {setup_s:.2f} | {statistics.median(durations):.0f} "
                  f"| {telemetry.key_ops} | {telemetry.search_ops} |", flush=True)


if __name__ == "__main__":
    main()
