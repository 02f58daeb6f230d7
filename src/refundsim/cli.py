"""Command-line front end for scenarios, ledger dumps, and the record database.

Exit status is 0 only when every assertion of the invoked run passed.
Transcripts are written beside the invocation directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dispute
from .scenarios import (
    ConfigError,
    Scenario,
    ScenarioName,
    report_storage_comparison,
    run_scenario,
)


def _parse_config(text: str) -> dict[str, int]:
    config: dict[str, int] = {}
    if not text:
        return config
    for pair in text.split(","):
        if "=" not in pair:
            raise ConfigError(f"bad config entry {pair!r}, expected key=value")
        key, value = pair.split("=", 1)
        config[key.strip()] = int(value)
    return config


def _build_scenario(args) -> Scenario:
    return Scenario(
        name=ScenarioName.parse(args.name),
        seed=args.seed,
        config=_parse_config(args.config),
        disable_defense=args.disable_defense,
    )


def _cmd_scenario_run(args) -> int:
    verdict = run_scenario(_build_scenario(args), out_dir=args.out_dir)
    print("\n".join(verdict.lines()))
    if verdict.transcript_path:
        print(f"  transcript: {verdict.transcript_path}")
    return 0 if verdict.all_passed else 1


def _cmd_scenario_list(_args) -> int:
    for name in ScenarioName:
        print(name.value)
    return 0


def _cmd_ledger_dump(args) -> int:
    verdict = run_scenario(_build_scenario(args), out_dir=None)
    for line in verdict.env.ledger.dump_lines():
        print(line)
    return 0 if verdict.all_passed else 1


def _cmd_db_dump(args) -> int:
    store = dispute.RecordStore(args.file)
    records = store.load()
    if not records:
        print("(empty database)")
        return 0
    print(f"{'main':<16} {'joint-refund':<16} {'fallback':<16} {'redeem':<16}")
    for record in records:
        print(
            f"{record.main_txid.hex()[:16]} {record.refund_tc1_txid.hex()[:16]} "
            f"{record.refund_tc2_txid.hex()[:16]} {record.redeem_txid.hex()[:16]}"
        )
    print(f"{len(records)} records, {len(records) * dispute.RECORD_SIZE} bytes")
    return 0


def _cmd_storage_compare(args) -> int:
    print(report_storage_comparison(args.n, args.ls, args.lpay))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refundsim",
        description="Hardened refund protocol simulator and attack replays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run or list scenarios")
    scenario_sub = p_scenario.add_subparsers(dest="scenario_command", required=True)
    p_run = scenario_sub.add_parser("run", help="run one scenario")
    p_run.add_argument("name", help="scenario name (see `scenario list`)")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--disable-defense", action="store_true")
    p_run.add_argument("--config", default="", help="comma-separated key=value")
    p_run.add_argument("--out-dir", default=".")
    p_run.set_defaults(func=_cmd_scenario_run)
    p_list = scenario_sub.add_parser("list", help="list scenario names")
    p_list.set_defaults(func=_cmd_scenario_list)

    p_ledger = sub.add_parser("ledger", help="ledger inspection")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command", required=True)
    p_dump = ledger_sub.add_parser(
        "dump", help="run a scenario and dump its final chain"
    )
    p_dump.add_argument("name")
    p_dump.add_argument("--seed", type=int, default=1)
    p_dump.add_argument("--disable-defense", action="store_true")
    p_dump.add_argument("--config", default="")
    p_dump.set_defaults(func=_cmd_ledger_dump)

    p_db = sub.add_parser("db", help="refund record database")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_db_dump = db_sub.add_parser("dump", help="render a record file")
    p_db_dump.add_argument("--file", required=True)
    p_db_dump.set_defaults(func=_cmd_db_dump)

    p_storage = sub.add_parser("storage", help="storage cost comparison")
    storage_sub = p_storage.add_subparsers(dest="storage_command", required=True)
    p_cmp = storage_sub.add_parser("compare")
    p_cmp.add_argument("--n", type=int, required=True, help="refundee count")
    p_cmp.add_argument("--ls", type=int, default=72, help="endorsement signature bytes")
    p_cmp.add_argument("--lpay", type=int, default=0, help="payment message bytes")
    p_cmp.set_defaults(func=_cmd_storage_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # create the output directory before the run, not when writing its end
        if getattr(args, "out_dir", None):
            os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot use output directory: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
