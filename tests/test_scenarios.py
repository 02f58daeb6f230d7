"""Scenario harness: verdicts, determinism, defense mutations."""

import signal
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from refundsim.cli import main
from refundsim.protocol import Merchant
from refundsim.scenarios import (
    RECOVERY_MAX_SESSIONS,
    RECOVERY_MAX_WALLET_K,
    UNEQUAL_MAX_CUSTOMERS,
    UNEQUAL_MAX_K,
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


def test_mixer_unequal_runs_at_its_customer_limit(tmp_path):
    """The largest unequal-totals run stays within its 5 s budget and passes."""
    start = time.perf_counter()
    config = {"unequal": 1, "n_customers": UNEQUAL_MAX_CUSTOMERS}
    verdict = run_scenario(Scenario(ScenarioName.MIXER, config=config), out_dir=str(tmp_path))
    assert verdict.all_passed, [a for a in verdict.assertions if not a.passed]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n_customers", [3, 4])
def test_mixer_unequal_runs_at_its_chunk_limit(n_customers, tmp_path):
    """The most chunks per refund an unequal-totals run takes stays within
    the 5 s budget and passes."""
    start = time.perf_counter()
    config = {"unequal": 1, "n_customers": n_customers, "k": UNEQUAL_MAX_K[n_customers]}
    verdict = run_scenario(Scenario(ScenarioName.MIXER, config=config), out_dir=str(tmp_path))
    assert verdict.all_passed, [a for a in verdict.assertions if not a.passed]
    assert time.perf_counter() - start < 5


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
    masked = issue.entry_keys[0][0]
    expected.append((masked, issue.records[0].redeem_txid))
    # the customer parent key is embedded in the payment's data carrier
    customer_pub = session.customer_xpubs[0].pubkey
    expected.append((customer_pub, session.main_txid))
    for pub, wanted_txid in expected:
        found = {tid for tid, _tx in ledger.find_by_pubkey(pub)}
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
    ("Recovery", "sessions=0"),
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


def test_multi_signer_payment_is_sealed(monkeypatch):
    """MultiSigner pays through the scenarios' one payment step, so its
    refund instructions reach the merchant sealed, like every other
    scenario payment's."""
    messages = []
    process_payment = Merchant.process_payment

    def recording(self, msg):
        messages.append(msg)
        return process_payment(self, msg)

    monkeypatch.setattr(Merchant, "process_payment", recording)
    verdict = run_scenario(Scenario(ScenarioName.MULTI_SIGNER), out_dir=None)
    assert verdict.all_passed, [a.label for a in verdict.assertions if not a.passed]
    (msg,) = messages
    assert msg.sealed_refund_to is not None
    assert msg.refund_to == ()


def test_recovery_wallet_above_its_limit_is_refused(monkeypatch):
    """A wallet_k one past the stated limit is a ConfigError before the run
    derives a key or logs a line (it used to run, its time doubling with
    each step of wallet_k)."""
    logged = []
    monkeypatch.setattr(Transcript, "log", lambda self, *args: logged.append(args))
    start = time.perf_counter()
    scenario = Scenario(ScenarioName.RECOVERY, config={"wallet_k": RECOVERY_MAX_WALLET_K + 1})
    with pytest.raises(ConfigError, match="wallet_k"):
        run_scenario(scenario, out_dir=None)
    assert logged == []
    assert time.perf_counter() - start < 1


# keys no run could observe, and the flag where no story has an undefended
# baseline: each is refused before the run starts
NOT_SETTABLE = [
    ("HonestRefund", "--config", "encrypt=1"),
    ("Silkroad", "--config", "encrypt=1"),
    ("Marketplace", "--config", "encrypt=0"),
    ("MultiSigner", "--config", "share=30000"),
    ("Recovery", "--config", "max_child_index=8"),
    ("Recovery", "--disable-defense"),
    ("Mixer", "--disable-defense"),
    ("Aggregate", "--disable-defense"),
]


@pytest.mark.parametrize("args", NOT_SETTABLE, ids=["-".join(a) for a in NOT_SETTABLE])
def test_unobservable_knobs_are_config_errors(args, tmp_path, capsys):
    argv = ["scenario", "run", *args, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


RELATIONAL = [
    ("HonestRefund", "refund_value=60000"),
    ("Silkroad", "refund_value=60000"),
    ("Marketplace", "refund_value=60000"),
    ("MultiSigner", "amount=60001"),
    ("MultiSigner", "refund_value=40000"),
    ("Recovery", "refund_value=60000"),
    ("Mixer", "amount=3"),
    ("Aggregate", "amount=3"),
    # more merchant keys than the wallet holds, or than the faucet funds
    ("Mixer", "k=40"),
    ("Aggregate", "outputs_per_tx=1"),
    ("Recovery", "wallet_k=2"),
    ("Recovery", "sessions=100,lock_blocks=1000"),
    ("Recovery", "sessions=200,lock_blocks=1000"),
    # above the measured sessions limit of its wallet_k, with lock and wallet
    # long enough
    ("Recovery", "sessions=177,lock_blocks=1000,wallet_k=10"),
    *(
        ("Recovery", f"sessions={most + 1},lock_blocks=1000,wallet_k={wallet_k}")
        for wallet_k, most in RECOVERY_MAX_SESSIONS.items()
    ),
    # many sessions with the largest wallet: each key is in range, 7-8 s together
    ("Recovery", "sessions=176,lock_blocks=350,wallet_k=14"),
    # session 2's fallback lock already passed when the story waits for it
    ("Recovery", "sessions=200"),
    ("Recovery", "sessions=32"),
    ("Recovery", f"sessions=65,wallet_k={RECOVERY_MAX_WALLET_K}"),
    # emissions that cannot mix: one transaction, or one holding a lone chunk
    ("Mixer", "k=1"),
    ("Mixer", "outputs_per_tx=100"),
    ("Mixer", "outputs_per_tx=1"),
    ("Mixer", "n_customers=3,outputs_per_tx=1"),
    ("Mixer", "n_customers=3,k=3"),
    ("Aggregate", "n_customers=3,k=3"),
    ("Aggregate", "k=1,n_customers=3,outputs_per_tx=2"),
    ("Aggregate", "n_customers=2,k=2,outputs_per_tx=3"),
    # one customer above the unequal-totals limit
    ("Mixer", f"unequal=1,n_customers={UNEQUAL_MAX_CUSTOMERS + 1}"),
    # one chunk per refund above the unequal-totals limit
    ("Mixer", f"unequal=1,n_customers=3,k={UNEQUAL_MAX_K[3] + 1}"),
    ("Mixer", f"unequal=1,n_customers=4,k={UNEQUAL_MAX_K[4] + 1}"),
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
    values = {key: int(value) for key, value in (p.split("=") for p in config.split(","))}
    with pytest.raises(ConfigError):
        run_scenario(Scenario(ScenarioName.parse(name), config=values), out_dir=None)
    assert logged == []
    argv = ["scenario", "run", name, "--config", config, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# each mixing key's edge values: 1, 2, 3, the default, and the value just
# past each stated limit (the unequal-totals limits; a value below the
# minimum of 1 is left to test_out_of_range_config_is_a_config_error)
MIXING_EDGES = {
    "n_customers": [1, 2, 3, UNEQUAL_MAX_CUSTOMERS + 1, 12],
    "k": [1, 2, 3, 4, *sorted({k + 1 for k in UNEQUAL_MAX_K.values()})],
    "amount": [1, 2, 3, 100_000],
    "jitter_window": [1, 2, 3],
    "outputs_per_tx": [1, 2, 3, 4, 100],
}
RUN_BUDGET_S = 15  # three times the README's 5 s budget for one run


def _edge_configs(**own):
    keys = {**MIXING_EDGES, **own}
    return st.fixed_dictionaries({key: st.sampled_from(values) for key, values in keys.items()})


def _out_of_time(_signum, _frame):
    raise TimeoutError(f"a run took more than {RUN_BUDGET_S} s")


@settings(
    derandomize=True, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(
    st.tuples(st.just("Mixer"), _edge_configs(unequal=[0, 1])),
    st.tuples(st.just("Aggregate"), _edge_configs(lock_blocks=[1, 2, 3, 40])),
))
def test_mixing_configs_pass_or_are_config_errors(case):
    """Every edge config of the two mixing scenarios either passes or is a
    ConfigError, within the run budget."""
    name, config = case
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_BUDGET_S)
    try:
        verdict = run_scenario(Scenario(ScenarioName.parse(name), config=config), out_dir=None)
    except ConfigError:
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert verdict.all_passed, [a.label for a in verdict.assertions if not a.passed]


# each key's edge values: 1, 2, 3, the default, and the value just past each
# stated limit: a refund above the amount (either side), an odd MultiSigner
# amount or one below its two refunds, a lock too short for the story (the
# smallest that runs is 2 to 5), the most Recovery sessions the default lock
# of 60 leaves room for and one more (31, 32), more Recovery sessions than
# the wallet holds keys for, a Recovery wallet above its stated size limit
LOCK_EDGES = [1, 2, 3, 4, 5]
REFUND_EDGES = {
    "HonestRefund": {
        "amount": [1, 2, 3, 50_000, 29_999],
        "refund_value": [1, 2, 3, 30_000, 50_001],
        "lock_blocks": [*LOCK_EDGES, 1008],
    },
    "Silkroad": {
        "amount": [1, 2, 3, 50_000, 49_999],
        "refund_value": [1, 2, 3, 50_000, 50_001],
        "lock_blocks": [*LOCK_EDGES, 1008],
    },
    "Marketplace": {
        "amount": [1, 2, 3, 40_000, 39_999],
        "refund_value": [1, 2, 3, 40_000, 40_001],
        "lock_blocks": [*LOCK_EDGES, 1008],
    },
    "MultiSigner": {
        "amount": [1, 2, 3, 60_000, 60_001, 49_998],
        "refund_value": [1, 2, 3, 25_000, 30_001],
        "lock_blocks": [*LOCK_EDGES, 1008],
    },
    "Recovery": {
        "amount": [1, 2, 3, 50_000, 29_999],
        "refund_value": [1, 2, 3, 30_000, 50_001],
        "sessions": [1, 2, 3, 4, 31, 32, 65, max(RECOVERY_MAX_SESSIONS.values()) + 1],
        "wallet_k": [1, 2, 3, 4, 8, RECOVERY_MAX_WALLET_K, RECOVERY_MAX_WALLET_K + 1],
        "lock_blocks": [*LOCK_EDGES, 60],
    },
}
UNDEFENDED = {"HonestRefund", "Silkroad", "Marketplace", "MultiSigner"}


def _refund_case(name):
    config = st.fixed_dictionaries(
        {key: st.sampled_from(values) for key, values in REFUND_EDGES[name].items()}
    )
    disable = st.booleans() if name in UNDEFENDED else st.just(False)
    return st.tuples(st.just(name), config, disable)


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(*map(_refund_case, REFUND_EDGES)))
# many sessions with the largest wallet: each key is in range, 7-8 s together
@example(("Recovery", {"sessions": 176, "lock_blocks": 350, "wallet_k": 14}, False))
def test_refund_configs_pass_or_are_config_errors(case):
    """Every edge config of the refund scenarios and Recovery, defended or
    (where the story has a baseline) not, either passes or is a
    ConfigError, within the run budget."""
    name, config, disable_defense = case
    scenario = Scenario(ScenarioName.parse(name), config=config, disable_defense=disable_defense)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_BUDGET_S)
    try:
        verdict = run_scenario(scenario, out_dir=None)
    except ConfigError:
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert verdict.all_passed, [a.label for a in verdict.assertions if not a.passed]


LARGE_REFUNDS = [
    ("HonestRefund", {"amount": 300_000, "refund_value": 300_000}),
    ("MultiSigner", {"amount": 400_000, "refund_value": 150_000}),
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
