"""Command-line interface surface."""

import os

import pytest

from refundsim.cli import main


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "Silkroad" in out and "Mixer" in out


def test_scenario_run_pass_exit_code(tmp_path, capsys):
    code = main(
        ["scenario", "run", "HonestRefund", "--seed", "2", "--out-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out
    assert any(f.endswith(".transcript.log") for f in os.listdir(tmp_path))


@pytest.mark.parametrize("argv", [
    ["scenario", "run", "HonestRefund", "--seed", "1"],
], ids=["scenario-run"])
def test_missing_out_dir_is_created(tmp_path, capsys, argv):
    out_dir = tmp_path / "not" / "yet"
    assert main(argv + ["--out-dir", str(out_dir)]) == 0
    assert any(f.endswith(".transcript.log") for f in os.listdir(out_dir))


def test_out_dir_that_is_a_file_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    code = main(["scenario", "run", "HonestRefund", "--out-dir", str(taken)])
    assert code == 2
    assert "output directory" in capsys.readouterr().err


def test_scenario_run_disable_defense(tmp_path, capsys):
    code = main(
        [
            "scenario", "run", "Marketplace", "--seed", "2",
            "--disable-defense", "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "rogue-steals-refund" in out


def test_scenario_run_with_config(tmp_path, capsys):
    code = main(
        [
            "scenario", "run", "HonestRefund", "--seed", "2",
            "--config", "amount=60000,refund_value=10000",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0


def test_bad_config_exit_code(tmp_path, capsys):
    code = main(
        [
            "scenario", "run", "HonestRefund",
            "--config", "nonsense=1", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2


def test_storage_compare(capsys):
    assert main(["storage", "compare", "--n", "5", "--ls", "72", "--lpay", "1000"]) == 0
    out = capsys.readouterr().out
    assert "1492" in out and "128" in out


def test_ledger_dump(capsys):
    code = main(
        ["ledger", "dump", "HonestRefund", "--seed", "2",
         "--config", "lock_blocks=10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("height=")]
    assert len(lines) >= 4  # seed, payment, both refund transactions, redeem
    assert all("raw=" in l for l in lines)


def test_ledger_dump_of_recovery_writes_no_file(tmp_path, monkeypatch, capsys):
    """A run with no output directory keeps its record file in a temporary one."""
    monkeypatch.chdir(tmp_path)
    assert main(["ledger", "dump", "Recovery"]) == 0
    assert "height=" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_db_dump_and_recover(tmp_path, capsys):
    code = main(["scenario", "run", "Recovery", "--seed", "2", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    db_path = tmp_path / "recovery_seed2.db"
    assert db_path.exists()
    code = main(["db", "dump", "--file", str(db_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 records, 384 bytes" in out
