"""Golden-hash gate: small experiments must reproduce recorded bytes.

Criterion 9 only compares two reruns of the same code with each other; this
test pins the outputs themselves.  The digests below were recorded before
the attack kernel moved to integer arithmetic, so any change to a report,
a serialized release, an actuals snapshot or a risk rational shows up as a
digest mismatch.  `CLI_DIGESTS` pin a history the CLI itself wrote,
meta.csv and a widened schema.json included.  `PUBLISHER_DIGESTS` pin the
m=2 runs of the publishers that place most records through the static
partitioner: m-invariance and l-diversity on every release, the strict
publisher through its star deal.  Regenerate them only for a deliberate
output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from pathlib import Path

import pytest

from mdistinct.cli import main
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.fileio import (HistoryStore, synthetic_schema, write_csv,
                              write_report_files, write_risks)

from conftest import DATA, HEADER, T3

GOLDEN = dict(d=10, n_records=200, n_releases=4, inserts=50, deletes=20,
              internal_updates=50, thetas=(0.25, 0.5), n_queries=100, seed=7)

GOLDEN_DIGESTS = {
    2: {
        "history/counterfeits_1.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_2.csv":
            "0106ec347397241f008ebb8b672c2eff90be99ff40df567992388a25ea1df890",
        "history/counterfeits_3.csv":
            "af562380a452b0a618f8b079fe2319d30875861de62674e052d7251182a30716",
        "history/counterfeits_4.csv":
            "d32712be3e3ebe778ad6d22925534c337fce4cd21fc8bbfb72e49323b7b87dbc",
        "history/microdata_1.csv":
            "d8098dc15bb9883f48ecd9f19a9c4ee65897e13ea2050b6397184977228f908f",
        "history/microdata_2.csv":
            "5c37fa36856bbd474429ad111e41cb54cd2deb48b7e6e5297ef7b403c34db0eb",
        "history/microdata_3.csv":
            "c25fe1cb4a608c754e701ac3ed89a4abb64c3dcb6ee333fbd8bf1b40250e5ff3",
        "history/microdata_4.csv":
            "9b997c65e8790dfd4d1cf72268fdb1dbe9b527f23ea26422add464f40d226fe0",
        "history/release_1.csv":
            "3829a79cc6d4ab121c8c909b0eee873d285699e60904899e6e590358ecf9a7ce",
        "history/release_2.csv":
            "59e7822fe47d65d83a36c6cad8e240ea1e8933b0d721264931320dae296130b0",
        "history/release_3.csv":
            "5c0e7868b8fb2c773736f8b4159ebc78f1cf1c8f4599c77d86f821d58da8292c",
        "history/release_4.csv":
            "c407c896b67933d8af2e31387c1ba82cf11f5f561d6f3f170796693dd05fcb09",
        "history/risks.csv":
            "ac1dbfe78c586c262f38d236fb3c0feb44d6c27880c458ab65897da28761b775",
        "history/schema.json":
            "229ee1e4c87514b8249596007646e54879d84375babc916310644fb9ee4b82dc",
        "report.csv":
            "e8cc76dec711c86bb1ef0a82fe7a9391365ce7ea15228792dea597aa45148dec",
        "summary.csv":
            "8d3550e0bc0a106b06166e0990ca1f0510a1c8031c1baea2a18da86504f5d537",
    },
    6: {
        "history/counterfeits_1.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_2.csv":
            "a0b552028f0de39791404f7240c0bc35036642a4d990960ae29c2d3bc273383d",
        "history/counterfeits_3.csv":
            "ba45c4c2c87931883d955911df0e120a380ffe354343841979982bea97a56956",
        "history/counterfeits_4.csv":
            "5cfd48ffd316b5f1f56ea4ede9911343e0277a6e36a0f1574f69b0c6d66d0ca2",
        "history/microdata_1.csv":
            "d8098dc15bb9883f48ecd9f19a9c4ee65897e13ea2050b6397184977228f908f",
        "history/microdata_2.csv":
            "5c37fa36856bbd474429ad111e41cb54cd2deb48b7e6e5297ef7b403c34db0eb",
        "history/microdata_3.csv":
            "c25fe1cb4a608c754e701ac3ed89a4abb64c3dcb6ee333fbd8bf1b40250e5ff3",
        "history/microdata_4.csv":
            "9b997c65e8790dfd4d1cf72268fdb1dbe9b527f23ea26422add464f40d226fe0",
        "history/release_1.csv":
            "5f4e315cc433ddf38d5eed3ea97330ed05e94f33ebb4e8dad1f8fb4894550e50",
        "history/release_2.csv":
            "0140b8a989027e6d5da840c5c83e218a7e56be59cc75c5ce505adb470f309efd",
        "history/release_3.csv":
            "db1c65d3e9cde0a21857071e50a46b05c3e4d180d3595108eb160891b732969e",
        "history/release_4.csv":
            "42a69425c3fb305d51225fba70bea64efa33bd9ac025f4bf15cc3f34e01d9b5e",
        "history/risks.csv":
            "a9df268af0d6fa60d06ed34022e289be1df668077b52cc59b0514c0e26bfb069",
        "history/schema.json":
            "229ee1e4c87514b8249596007646e54879d84375babc916310644fb9ee4b82dc",
        "report.csv":
            "677a6d6f5f44d444694c8f0d1e15f9f8e946c1bff1cd5b8a862ede75aa6d1e19",
        "summary.csv":
            "1bc35d72cbbc9d162eef4b772cf450d60c18d468490d2e5f9e5aee109a05f7fb",
    },
}


PUBLISHER_DIGESTS = {
    "l_diversity": {
        "history/counterfeits_1.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_2.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_3.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_4.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/microdata_1.csv":
            "d8098dc15bb9883f48ecd9f19a9c4ee65897e13ea2050b6397184977228f908f",
        "history/microdata_2.csv":
            "5c37fa36856bbd474429ad111e41cb54cd2deb48b7e6e5297ef7b403c34db0eb",
        "history/microdata_3.csv":
            "c25fe1cb4a608c754e701ac3ed89a4abb64c3dcb6ee333fbd8bf1b40250e5ff3",
        "history/microdata_4.csv":
            "9b997c65e8790dfd4d1cf72268fdb1dbe9b527f23ea26422add464f40d226fe0",
        "history/release_1.csv":
            "3829a79cc6d4ab121c8c909b0eee873d285699e60904899e6e590358ecf9a7ce",
        "history/release_2.csv":
            "50860e8ee631e56bb961f749b943610b19256f0d59d9bc0a638c8e04cbabdcb8",
        "history/release_3.csv":
            "60f8c675897d1cb38ca95c06cd4b7fd04be7f4f601a7757f773d70d3641f064e",
        "history/release_4.csv":
            "4dc3c65599a26dfc4670036d8eade931d2f5cf5c97e9bb61e78b8af4f1146490",
        "history/risks.csv":
            "0a5c3c44605a5f2d1e077f5a61fe800833f59e4a7b776165eef951f309206630",
        "history/schema.json":
            "229ee1e4c87514b8249596007646e54879d84375babc916310644fb9ee4b82dc",
        "report.csv":
            "355166c20c43f647a99470834eea2ccd75e6215c4da15c3280dcfe4a0483589c",
        "summary.csv":
            "d7101982a97309dd1ef4dd8aa62aebf5293fa5995aafbd0ab7a1d0c38df860d7",
    },
    "m_distinct_star": {
        "history/counterfeits_1.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_2.csv":
            "2477b9bfaaf2ad0260fb8f885d1e870f144fa2405f1b00a5b0619d49c59eacf3",
        "history/counterfeits_3.csv":
            "04bc16b17ff44ef7035b186f7c7e139e7cd421efd72c4cc721d4271a9d60b7f9",
        "history/counterfeits_4.csv":
            "a880198ccdc26e0e29cf20fef190d1d94e721c42ffa32fe2793bf7f42851ccfc",
        "history/microdata_1.csv":
            "d8098dc15bb9883f48ecd9f19a9c4ee65897e13ea2050b6397184977228f908f",
        "history/microdata_2.csv":
            "5c37fa36856bbd474429ad111e41cb54cd2deb48b7e6e5297ef7b403c34db0eb",
        "history/microdata_3.csv":
            "c25fe1cb4a608c754e701ac3ed89a4abb64c3dcb6ee333fbd8bf1b40250e5ff3",
        "history/microdata_4.csv":
            "9b997c65e8790dfd4d1cf72268fdb1dbe9b527f23ea26422add464f40d226fe0",
        "history/release_1.csv":
            "373e80e6807b7f93a099dc2bf976aed3ad2abc91868cc55720f41485c68ca788",
        "history/release_2.csv":
            "d2cc4d1176c5b19961803f39609e0b06f6178accaa32f933011774a72e0ee53e",
        "history/release_3.csv":
            "daa1205f46317e03c5e1570407075c62fdf323b15cb58e4900968605b180d796",
        "history/release_4.csv":
            "aa0ab9171fc9d2f3781433e458073bd613b8e49a497a5e812ce9a7425b0c7e38",
        "history/risks.csv":
            "ac1dbfe78c586c262f38d236fb3c0feb44d6c27880c458ab65897da28761b775",
        "history/schema.json":
            "229ee1e4c87514b8249596007646e54879d84375babc916310644fb9ee4b82dc",
        "report.csv":
            "199c33da9c1d95e2a27faabe5d6e1ff58da1fe6e21e6ae808239a29aac74951a",
        "summary.csv":
            "04aa2eca6adaaa9c8cf88b3094457ea110dcc60807b3e4a1938e111785ea7017",
    },
    "m_invariance": {
        "history/counterfeits_1.csv":
            "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
        "history/counterfeits_2.csv":
            "7c1e9516b5c152c33121cae509bdf08d1c5fc80facdf337f6118380884b0867a",
        "history/counterfeits_3.csv":
            "c34e56e082d0098bd09e297d718299b817e00d0711a31a22d9edb6528dcdf138",
        "history/counterfeits_4.csv":
            "f23fea2e12378160c832ac9831cdc25a9ac3b2dcc8e18d508588a64fab17bf18",
        "history/microdata_1.csv":
            "d8098dc15bb9883f48ecd9f19a9c4ee65897e13ea2050b6397184977228f908f",
        "history/microdata_2.csv":
            "5c37fa36856bbd474429ad111e41cb54cd2deb48b7e6e5297ef7b403c34db0eb",
        "history/microdata_3.csv":
            "c25fe1cb4a608c754e701ac3ed89a4abb64c3dcb6ee333fbd8bf1b40250e5ff3",
        "history/microdata_4.csv":
            "9b997c65e8790dfd4d1cf72268fdb1dbe9b527f23ea26422add464f40d226fe0",
        "history/release_1.csv":
            "3829a79cc6d4ab121c8c909b0eee873d285699e60904899e6e590358ecf9a7ce",
        "history/release_2.csv":
            "b56df9099c2148dfc696eca1daf403f4dbc1e2fc82fdd857cd6f4cb562a3fa20",
        "history/release_3.csv":
            "83bb8b1e545fc9d5b523409c308cab650dbb81d8ddd11592bd59e4be4a394959",
        "history/release_4.csv":
            "9c0d2d7ac9a0def790c220e05561059af15722df0c28b6c9f372568209fea682",
        "history/risks.csv":
            "322ce947315deee62ed09db3a99e6cd08234d156939df9807abd1fb6cd4b35b9",
        "history/schema.json":
            "229ee1e4c87514b8249596007646e54879d84375babc916310644fb9ee4b82dc",
        "report.csv":
            "dae30b982b070c6cda3849c5f69379a998bb54a6a55409220b98de1f9af3851e",
        "summary.csv":
            "a5206cdd45ea4471439d5b9db952d29b4c4e2eae6f63c05286f172d1f6decbda",
    },
}


CLI_DIGESTS = {
    "counterfeits_1.csv":
        "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
    "counterfeits_2.csv":
        "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
    "counterfeits_3.csv":
        "57aeed239f1e8c9ed1647e5a3ff914c7a397bc6bbc05670666c747341a47aedb",
    "meta.csv":
        "34ace8c8011a039f93b8fcd205c44274838333fed8fb8e80d6b0e69648c9d461",
    "microdata_1.csv":
        "62ddd78795c63de27da321692cc45dd403c909d56d822f472f0073ccd9b10f31",
    "microdata_2.csv":
        "041d1a274bd16d6393b49fcf8a662146d213796e36776ec4b7e108416dee4453",
    "microdata_3.csv":
        "cad1b6e2146b4fa6ac3e8874b423d548bf964ce9a9efe0b348300e4e38848c2a",
    "release_1.csv":
        "2c4ab858cb4bead9c9272be6490db00c4d73c54576d4d45905b89a7e4ff3d251",
    "release_2.csv":
        "0de561559b92052a4f5ba3ec5647b06c9ac8ef15ef3efe0b9ca210a0374926e3",
    "release_3.csv":
        "06b5db81b538c5ab1b3b24739e8e678d5f944a3d7c7582eb938ff354c3ce2e62",
    "risks.csv":
        "a993050823f22052611c6236a01bb92cffffadc8f4236027fe950f92679ce9e5",
    "schema.json":
        "b3f261b4f20d2d29cda12cfbefb8c4c3ff27e8451c211bdfe100b530de1dcf51",
}


def golden_outputs(m: int, root: Path,
                   publisher: str = "m_distinct") -> dict[str, str]:
    """Run the golden config of `publisher` at `m` and return sha256 per
    output file: `report.csv`, `summary.csv`, and every file of the
    serialized history (schema, releases, counterfeit counts, actuals and
    the final risks)."""
    config = ExperimentConfig(publisher=publisher, m=m, **GOLDEN)
    report = run_experiment(config)
    schema, _ = synthetic_schema(config.d, config.sensitive_size)
    report_dir = root / "report"
    write_report_files(report_dir, report)
    store = HistoryStore(root / "history")
    store.path.mkdir(parents=True)
    store.write_schema(schema)
    for release, snapshot in zip(report.published, report.snapshots):
        store.write_release(release, schema)
        store.write_actuals(release.release_index, schema, snapshot)
    write_risks(store.path / "risks.csv", report.final_reports)
    files = {name: report_dir / name for name in ("report.csv", "summary.csv")}
    files.update({f"history/{p.name}": p
                  for p in sorted(store.path.iterdir())})
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in files.items()}


def cli_outputs(root: Path) -> dict[str, str]:
    """Publish t1, t2 and T3, whose ages widen the schema, into one history
    through the CLI, attack it, and return sha256 per file of the
    history."""
    write_csv(root / "t3.csv", [HEADER, *T3])
    history = root / "history"
    base = ["--model", DATA / "disease_transitions.csv", "--history",
            history]
    for snapshot in (DATA / "microdata_t1.csv", DATA / "microdata_t2.csv",
                     root / "t3.csv"):
        assert main([str(a) for a in ("publish", "--microdata", snapshot,
                                      "--m", 2, "--seed", 3, *base)]) == 0
    assert main([str(a) for a in ("attack", *base)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(history.iterdir())}


@pytest.mark.parametrize("m", [2, 6])
def test_golden_outputs_match_recorded_digests(m, tmp_path):
    assert golden_outputs(m, tmp_path) == GOLDEN_DIGESTS[m]


@pytest.mark.parametrize("publisher", sorted(PUBLISHER_DIGESTS))
def test_publisher_outputs_match_recorded_digests(publisher, tmp_path):
    assert golden_outputs(2, tmp_path, publisher) == \
        PUBLISHER_DIGESTS[publisher]


def test_cli_history_matches_recorded_digests(tmp_path):
    assert cli_outputs(tmp_path) == CLI_DIGESTS


if __name__ == "__main__":
    import contextlib
    import pprint
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({m: golden_outputs(m, Path(tmp) / str(m))
                       for m in (2, 6)}, width=100)
        pprint.pprint({p: golden_outputs(2, Path(tmp) / p, p)
                       for p in ("l_diversity", "m_distinct_star",
                                 "m_invariance")}, width=100)
        with contextlib.redirect_stdout(sys.stderr):
            digests = cli_outputs(Path(tmp))
        pprint.pprint(digests, width=100)
