"""Scenario harness: verdicts, determinism, defense mutations."""

import time

import pytest

from refundsim.cli import main
from refundsim.scenarios import (
    ConfigError,
    Scenario,
    ScenarioName,
    Transcript,
    report_storage_comparison,
    run_scenario,
)


def by_label(verdict):
    return {a.label: a for a in verdict.assertions}


@pytest.mark.parametrize("name", list(ScenarioName))
def test_every_scenario_passes(name, tmp_path):
    verdict = run_scenario(Scenario(name, seed=1), out_dir=str(tmp_path))
    failed = [a for a in verdict.assertions if not a.passed]
    assert not failed, failed
    assert len(verdict.assertions) >= 3
    assert verdict.transcript_path is not None


@pytest.mark.parametrize("sessions", [4, 10])
@pytest.mark.parametrize("seed", [1, 7])
def test_recovery_passes_beyond_three_sessions(sessions, seed, tmp_path):
    """Later sessions' fallbacks are still time-locked when the database is
    lost; recovery must keep those refunds too."""
    verdict = run_scenario(
        Scenario(ScenarioName.RECOVERY, seed=seed, config={"sessions": sessions}),
        out_dir=str(tmp_path),
    )
    assert by_label(verdict)["records-recovered-exactly"].detail == f"{sessions} records"
    assert verdict.all_passed, [a for a in verdict.assertions if not a.passed]


def test_scenario_transcripts_deterministic(tmp_path):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (d1, d2, d3):
        d.mkdir()
    v1 = run_scenario(Scenario(ScenarioName.SILKROAD, seed=5), out_dir=str(d1))
    v2 = run_scenario(Scenario(ScenarioName.SILKROAD, seed=5), out_dir=str(d2))
    v3 = run_scenario(Scenario(ScenarioName.SILKROAD, seed=6), out_dir=str(d3))
    t1 = open(v1.transcript_path, "rb").read()
    t2 = open(v2.transcript_path, "rb").read()
    t3 = open(v3.transcript_path, "rb").read()
    assert t1 == t2
    assert t1 != t3


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        run_scenario(
            Scenario(ScenarioName.HONEST_REFUND, config={"bogus": 1}), out_dir=None
        )


def test_unknown_scenario_name_rejected():
    with pytest.raises(ConfigError):
        ScenarioName.parse("NotAScenario")


def test_marketplace_defense_mutation_flips_outcome(tmp_path):
    """The defended run neutralizes the rogue; the vanilla baseline pays it."""
    defended = run_scenario(
        Scenario(ScenarioName.MARKETPLACE, seed=3), out_dir=str(tmp_path)
    )
    baseline = run_scenario(
        Scenario(ScenarioName.MARKETPLACE, seed=3, disable_defense=True),
        out_dir=str(tmp_path),
    )
    assert by_label(defended)["rogue-balance-delta-zero"].passed
    assert by_label(baseline)["rogue-steals-refund"].passed
    assert "rogue-balance-delta-zero" not in by_label(baseline)


def test_silkroad_defense_mutation_removes_evidence(tmp_path):
    defended = run_scenario(
        Scenario(ScenarioName.SILKROAD, seed=3), out_dir=str(tmp_path)
    )
    baseline = run_scenario(
        Scenario(ScenarioName.SILKROAD, seed=3, disable_defense=True),
        out_dir=str(tmp_path),
    )
    assert by_label(defended)["linkage-proof-verifies"].passed
    assert by_label(baseline)["no-linkage-evidence"].passed
    assert "linkage-proof-verifies" not in by_label(baseline)


def test_multisigner_defense_mutation(tmp_path):
    defended = run_scenario(
        Scenario(ScenarioName.MULTI_SIGNER, seed=3), out_dir=str(tmp_path)
    )
    baseline = run_scenario(
        Scenario(ScenarioName.MULTI_SIGNER, seed=3, disable_defense=True),
        out_dir=str(tmp_path),
    )
    assert by_label(defended)["attacker-gain-zero"].passed
    assert by_label(baseline)["trader-steals-victims-refund"].passed


def test_accounting_closure_in_all_scenarios(tmp_path):
    for name in ScenarioName:
        verdict = run_scenario(Scenario(name, seed=2), out_dir=str(tmp_path))
        assert by_label(verdict)["accounting-closure"].passed, name


def test_mixer_unequal_config_breaks_ambiguity(tmp_path):
    verdict = run_scenario(
        Scenario(ScenarioName.MIXER, seed=4, config={"unequal": 1}),
        out_dir=str(tmp_path),
    )
    # the ambiguity assertion is vacuous-by-config here; the run still passes
    assert verdict.all_passed


def test_storage_report_values():
    report = report_storage_comparison(10, 72, 0)
    assert "702" in report and "128" in report  # 210 + 42*10 + 72
    assert "324" in report  # the single-refundee row: 252 + 72


def test_honest_refund_surfaces_fallback_hazard(tmp_path):
    verdict = run_scenario(
        Scenario(ScenarioName.HONEST_REFUND, seed=8), out_dir=str(tmp_path)
    )
    assert by_label(verdict)["fallback-double-payout-hazard-surfaced"].passed


def test_search_completeness_against_scenario_keys(tmp_path):
    """Every on-chain-visible key use in a run is found by the key search."""
    from refundsim.transactions import txid as tx_id

    verdict = run_scenario(
        Scenario(ScenarioName.HONEST_REFUND, seed=11), out_dir=None
    )
    env = verdict.env
    ledger = env.ledger
    session = next(iter(env.merchant.sessions.values()))
    issue = session.refund
    expected = []
    # payment address receives the payment transaction
    _, payment_pub = env.merchant.wallet.key(session.payment_key_index)
    expected.append((payment_pub, session.main_txid))
    # funding keys sign the refund transactions they emitted
    m1_pub = issue.tc1.inputs[0].witness[0][1]
    expected.append((m1_pub, tx_id(issue.tc1)))
    m2_pub = issue.tc2.inputs[0].witness[0][1]
    expected.append((m2_pub, tx_id(issue.tc2)))
    # the masked entry key appears in the revealed redeem script
    masked = issue.entry_outputs[0][2][0]
    expected.append((masked, issue.records[0].redeem_txid))
    # the customer parent key is embedded in the payment's data carrier
    customer_pub = session.customer_xpubs[0].pubkey
    expected.append((customer_pub, session.main_txid))
    for pub, wanted_txid in expected:
        found = {loc.txid for loc in ledger.find_by_pubkey(pub)}
        assert wanted_txid in found


@pytest.mark.parametrize("sessions", [1, 2])
def test_recovery_too_few_sessions_rejected(sessions):
    """Recovery replays two joint redeems and a fallback, so it needs three sessions."""
    with pytest.raises(ConfigError):
        run_scenario(
            Scenario(ScenarioName.RECOVERY, config={"sessions": sessions}), out_dir=None
        )


OUT_OF_RANGE = [
    ("Mixer", "k=0"),
    ("Mixer", "outputs_per_tx=0"),
    ("Mixer", "jitter_window=0"),
    ("Mixer", "n_customers=0"),
    ("Aggregate", "n_customers=0"),
    ("HonestRefund", "refund_value=0"),
    ("Silkroad", "amount=0"),
    ("HonestRefund", "lock_blocks=0"),
    ("HonestRefund", "lock_blocks=1"),
    ("Recovery", "max_child_index=0"),
]


@pytest.mark.parametrize(
    "name,config", OUT_OF_RANGE, ids=[f"{n}-{c}" for n, c in OUT_OF_RANGE]
)
def test_out_of_range_config_is_a_config_error(name, config, tmp_path, capsys):
    key, value = config.split("=")
    with pytest.raises(ConfigError):
        run_scenario(
            Scenario(ScenarioName.parse(name), config={key: int(value)}), out_dir=None
        )
    argv = ["scenario", "run", name, "--config", config, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


RELATIONAL = [
    ("HonestRefund", "refund_value=60000"),
    ("Silkroad", "refund_value=60000"),
    ("Marketplace", "refund_value=60000"),
    ("MultiSigner", "share=20000"),
    ("MultiSigner", "refund_value=40000"),
    ("Recovery", "refund_value=60000"),
    ("Mixer", "amount=3"),
    ("Aggregate", "amount=3"),
    # more merchant keys than the wallet holds, or than the faucet funds
    ("Mixer", "k=40"),
    ("Aggregate", "outputs_per_tx=1"),
    ("Recovery", "wallet_k=2"),
    ("Recovery", "sessions=200"),
]


@pytest.mark.parametrize(
    "name,config", RELATIONAL, ids=[f"{n}-{c}" for n, c in RELATIONAL]
)
def test_relational_config_is_a_config_error(name, config, tmp_path, capsys, monkeypatch):
    """Values in range that break a rule of the story (a refund above the
    amount, shares that miss it, fewer units than chunks, more merchant keys
    than the wallet holds) are rejected before the story logs anything."""
    logged = []
    monkeypatch.setattr(Transcript, "log", lambda self, *args: logged.append(args))
    key, value = config.split("=")
    with pytest.raises(ConfigError):
        run_scenario(
            Scenario(ScenarioName.parse(name), config={key: int(value)}), out_dir=None
        )
    assert logged == []
    argv = ["scenario", "run", name, "--config", config, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


LARGE_REFUNDS = [
    ("HonestRefund", {"amount": 300_000, "refund_value": 300_000}),
    ("MultiSigner", {"amount": 400_000, "share": 200_000, "refund_value": 150_000}),
    ("Mixer", {"amount": 1_000_000}),
    ("Aggregate", {"amount": 1_000_000}),
]


@pytest.mark.parametrize(
    "name,config", LARGE_REFUNDS, ids=[n for n, _c in LARGE_REFUNDS]
)
def test_refunds_above_the_default_merchant_funds_run(name, config):
    """The faucet funds each merchant key for the largest transaction the
    story may fund from it."""
    verdict = run_scenario(Scenario(ScenarioName.parse(name), config=config), out_dir=None)
    assert verdict.all_passed, [a for a in verdict.assertions if not a.passed]


@pytest.mark.parametrize("name", ["Mixer", "Aggregate"])
def test_mixing_scales_to_twelve_customers(name, tmp_path):
    """The exact linkage count stays small when the customers are interchangeable."""
    start = time.perf_counter()
    scenario = Scenario(ScenarioName.parse(name), config={"n_customers": 12})
    verdict = run_scenario(scenario, out_dir=str(tmp_path))
    assert verdict.all_passed, [a for a in verdict.assertions if not a.passed]
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("name,smallest", [
    ("HonestRefund", 2), ("Silkroad", 2), ("MultiSigner", 2), ("Marketplace", 3),
    ("Recovery", 4),
])
def test_smallest_lock_blocks_runs(name, smallest, tmp_path):
    """A story that waits for a lock height it has already passed is a config
    error; the smallest lock that leaves it room runs and passes."""
    def run(lock_blocks):
        scenario = Scenario(ScenarioName.parse(name), config={"lock_blocks": lock_blocks})
        return run_scenario(scenario, out_dir=str(tmp_path))

    with pytest.raises(ConfigError):
        run(smallest - 1)
    verdict = run(smallest)
    assert verdict.all_passed, [a for a in verdict.assertions if not a.passed]
