"""Byte-identity of every scenario's output against pinned digests.

One sha256 per run covers the transcript file (with the output directory
replaced by a fixed token, because Recovery logs its record file's path),
the ledger dump, every record database in the output directory and the
verdict lines.  A refactor that claims to leave behaviour unchanged must
leave every digest here unchanged.

To re-pin after an intended output change, run this file with
``GOLDEN_PRINT=1`` and ``-s`` and paste the printed table.
"""

import hashlib
import os

import pytest

from refundsim.scenarios import Scenario, ScenarioName, run_scenario

GOLDEN = {
    ("HonestRefund", 1, False):
        "1befb861ee2e5613e2d87282b24d168113a1eb0d224405ee1056b4ce6cbb666b",
    ("HonestRefund", 7, False):
        "7b11bca41d476cc84aceb631d5530efd325bee37ff894dfc3acf4d19d84309c6",
    ("Silkroad", 1, False):
        "2cacf832e810a05102cd164bfc60b623ddbec8deb09fcb43f7cb98417bd131a7",
    ("Silkroad", 7, False):
        "01e50b079d6fc972a2a3f5d5e0464056c75b3f492badc337279786e707728720",
    ("Marketplace", 1, False):
        "033151ee21dec07310f48884717e9adb21fbfb083939d36c25f0f31c707011fa",
    ("Marketplace", 7, False):
        "ffc40cf6b2efc5b3088ce40746c4a79a47d98c881ae65f95c61f3912a71b349e",
    ("MultiSigner", 1, False):
        "ecfac6d52af4d3ffe78f1549411559aacfec41e431d8b6cef54a2dd456d74989",
    ("MultiSigner", 7, False):
        "dc6e9f1f77eb1a50eff2cb432dba9eb4232ed711b43403dc1e7f6ff5f69878d1",
    ("Recovery", 1, False):
        "db4793346fa5c5c57c0ce6dcd4214fa89c197d2bf34cec6de385de47bbe1de8e",
    ("Recovery", 7, False):
        "2ce876d56fafc8ddde2526b0dd323491635aa36a0a82077bdbd9f97db5217147",
    ("Mixer", 1, False):
        "0f81ac59b1c6004f1c40948ca912e3b11a6f90b5a0d1a4787358af7ca335566c",
    ("Mixer", 7, False):
        "0efd8b31d2e482a8e07c714c1c8a313a99a078f6dd0fab567d025b7d9a7d09f4",
    ("Aggregate", 1, False):
        "3c91eba63bc34e575863ad2540526791d706f3a1930278368c4109e32933f6b8",
    ("Aggregate", 7, False):
        "8bc2ccb46e7fe5cf72b1ff903605316d4bc5e6429c08694e26d5dbd7d2b1b8b7",
    ("HonestRefund", 1, True):
        "83b7ea238f804fc107c268ea347bdfa912c793ab29d28d498de5e80854f1276c",
    ("HonestRefund", 7, True):
        "0905f7284697824c2551c7d5fe228daffce0fc6250a2545e6c68c37633eb004f",
    ("Silkroad", 1, True):
        "e7cfd91c25f22db8afdb066fa9395e36617c4237aec7f5af21755c09e9ae962c",
    ("Silkroad", 7, True):
        "920e030093487cd265424c4ba1a87b5db03f3ffbc7ff7a3c074a2f7a449ea506",
    ("Marketplace", 1, True):
        "78ff9937f3e4007d897f13a792671cf5b12038e9b7778fd660b64bcd0e25ebdb",
    ("Marketplace", 7, True):
        "6fca5e59a6c73c59f6a86ef76e40a768c7e3618a7bd9a089ddf0abee239dd5f5",
    ("MultiSigner", 1, True):
        "cdcec5f24bbde38fb9875f18392d5e5708123b76bb7971be04e374ce9a5bba39",
    ("MultiSigner", 7, True):
        "092287b57e9ed0fe06677352167f65dde457368ae1f82555bc8f9baef8b5ce3a",
}


def run_digest(name: str, seed: int, disable_defense: bool, out_dir: str) -> str:
    scenario = Scenario(ScenarioName.parse(name), seed=seed, disable_defense=disable_defense)
    verdict = run_scenario(scenario, out_dir=out_dir)
    h = hashlib.sha256()
    with open(verdict.transcript_path, "rb") as fh:
        h.update(fh.read().replace(out_dir.encode(), b"<out>"))
    h.update("\n".join(verdict.env.ledger.dump_lines()).encode())
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".db"):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                h.update(fname.encode() + fh.read())
    h.update("\n".join(verdict.lines()).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name,seed,disable_defense",
    list(GOLDEN),
    ids=[f"{n}-{s}{'-vanilla' if d else ''}" for n, s, d in GOLDEN],
)
def test_output_bytes_match_pinned_digest(name, seed, disable_defense, tmp_path):
    digest = run_digest(name, seed, disable_defense, str(tmp_path))
    if os.environ.get("GOLDEN_PRINT"):
        print(f'\n    ("{name}", {seed}, {disable_defense}):\n        "{digest}",')
    assert digest == GOLDEN[(name, seed, disable_defense)]
