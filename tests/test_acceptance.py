"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and records a single
`criterion N: PASS/FAIL` line, echoed in the terminal summary after the run.
The desk-scale experiment fixtures are shared across criteria and dominate
the suite's runtime.
"""

import csv
import random
import time
from fractions import Fraction

import pytest

from mdistinct.cli import main
from mdistinct.evaluation import ExperimentConfig, run_experiment
from mdistinct.fileio import HistoryStore, synthetic_schema, write_report_files
from mdistinct.sug import (attack_release_sequence, build_sug,
                           disclosure_risks, prune, risks_by_joint_oracle)
from mdistinct.updates import UpdateModel

from conftest import layer_values, path_weights

F = Fraction

DESK = dict(d=10, n_records=2000, n_releases=10, inserts=500, deletes=200,
            internal_updates=500, thetas=(0.25, 0.5, 0.75), n_queries=1000,
            seed=7, sensitive_size=50)

# the strict variant cannot host six pairwise-disjoint update scopes when the
# 50-value domain splits into five blocks of ten, so the m=6 run narrows the
# blocks instead
STAR_CASES = ((2, 10), (4, 10), (6, 5))


def _conclude(log, number, failures, detail):
    status = "PASS" if not failures else "FAIL"
    text = detail if not failures else "; ".join(failures)
    line = f"criterion {number}: {status} - {text}"
    print(line)
    log(line)
    assert not failures, line


def _read_risks(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {(rid, int(version)): F(int(num), int(den))
            for rid, version, num, den, _ in rows[1:]}


# ---------------------------------------------------------------------------
# shared heavyweight fixtures


@pytest.fixture(scope="module")
def desk_runs():
    t0 = time.perf_counter()
    runs = {m: run_experiment(ExperimentConfig(m=m, **DESK))
            for m in (2, 4, 6)}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def star_runs():
    out = {}
    for m, d in STAR_CASES:
        config = ExperimentConfig(publisher="m_distinct_star", m=m,
                                  **{**DESK, "d": d, "thetas": (),
                                     "n_queries": 0})
        out[(m, d)] = run_experiment(config)
    return out


@pytest.fixture(scope="module")
def minv_runs():
    out = {}
    for d in (1, 10):
        config = ExperimentConfig(publisher="m_invariance",
                                  **{**DESK, "d": d, "thetas": (),
                                     "n_queries": 0})
        out[d] = run_experiment(config)
    return out


@pytest.fixture(scope="module")
def worked_history_dirs(tmp_path_factory, disease_schema, release_one,
                        release_two_naive, release_two_defended, t1_records,
                        t2_records, data_dir):
    def build(name, second_release):
        root = tmp_path_factory.mktemp(name)
        store = HistoryStore(root / "hist")
        store.path.mkdir()
        store.write_schema(disease_schema)
        store.write_meta({"m": "2", "mode": "m_distinct", "seed": "0"})
        store.write_release(release_one, disease_schema)
        store.write_release(second_release, disease_schema)
        store.write_actuals(1, disease_schema, t1_records)
        store.write_actuals(2, disease_schema, t2_records)
        return store.path

    return {"naive": build("naive", release_two_naive),
            "defended": build("defended", release_two_defended),
            "model": data_dir / "disease_transitions.csv"}


# ---------------------------------------------------------------------------
# random-instance generators (closure holds by reachability construction)


def _random_model(rng):
    n = rng.randint(2, 6)
    domain = [f"v{i}" for i in range(n)]
    base = {v: {rng.choice(domain) for _ in range(rng.randint(1, 2))}
            for v in domain}
    cus = {}
    for v in domain:
        seen: set = set()
        frontier = set(base[v])
        while frontier:
            seen |= frontier
            frontier = {w for u in frontier for w in base[u]} - seen
        cus[v] = seen
    return UpdateModel.uniform(cus, domain)


def _random_instance(model, rng, max_width=4):
    domain = sorted(model.sensitive_domain)
    depth = rng.randint(1, 4)
    actual = [rng.choice(domain)]
    while len(actual) < depth:
        actual.append(rng.choice(sorted(model.cus_of(actual[-1]))))
    candidates = []
    for v in actual:
        others = [u for u in domain if u != v]
        extra = rng.sample(others, rng.randint(0, min(max_width - 1,
                                                      len(others))))
        layer = [v, *extra]
        rng.shuffle(layer)
        candidates.append(layer)
    return candidates, actual


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_naive_regrouping_is_fully_disclosing(
        worked_history_dirs, capsys, criterion_log):
    failures = []
    t0 = time.perf_counter()
    code = main(["attack", "--history", str(worked_history_dirs["naive"]),
                 "--model", str(worked_history_dirs["model"])])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    if code != 0:
        failures.append(f"attack exited {code}")
    risks = _read_risks(worked_history_dirs["naive"] / "risks.csv")
    if risks.get(("Ben", 1)) != 1 or risks.get(("Ben", 2)) != 1:
        failures.append(f"Ben risks {risks.get(('Ben', 1))},"
                        f"{risks.get(('Ben', 2))} not both 1")
    vulnerable = sum(1 for r in risks.values() if r == 1)
    if vulnerable < 4:
        failures.append(f"only {vulnerable} fully disclosed versions")
    if elapsed >= 1.0:
        failures.append(f"attack took {elapsed:.2f} s")
    _conclude(criterion_log, 1, failures,
              f"Ben pinned in both releases, {vulnerable} record versions "
              f"fully disclosed, attack in {elapsed:.2f} s")


def test_criterion_02_defended_history_verifies_and_caps_risk(
        worked_history_dirs, capsys, criterion_log):
    failures = []
    hist = str(worked_history_dirs["defended"])
    model = str(worked_history_dirs["model"])
    t0 = time.perf_counter()
    code = main(["verify", "--history", hist, "--model", model, "--m", "2"])
    verified = time.perf_counter() - t0
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"verify exited {code}")
    if "OK" not in out:
        failures.append("verify did not report OK")
    if main(["attack", "--history", hist, "--model", model]) != 0:
        failures.append("attack exited non-zero")
    capsys.readouterr()
    risks = _read_risks(worked_history_dirs["defended"] / "risks.csv")
    worst = max(risks.values())
    if worst != F(1, 2):
        failures.append(f"max risk {worst} != 1/2")
    if (risks[("Ben", 1)], risks[("Ben", 2)]) != (F(1, 2), F(1, 2)):
        failures.append("Ben's risks are not exactly 1/2")
    if verified >= 1.0:
        failures.append(f"verify took {verified:.2f} s")
    _conclude(criterion_log, 2, failures,
              f"verify exit 0 in {verified:.2f} s, every risk <= 1/2 with "
              f"Ben at exactly 1/2")


def test_criterion_03_partial_knowledge_grades_risks(
        release_one, release_two_naive, worked_model, histories_12,
        criterion_log):
    failures = []
    reports = {r.record_id: r for r in attack_release_sequence(
        [release_one, release_two_naive], None, worked_model, histories_12)}
    julia = reports["Julia"]
    if julia.risks != (F(1), F(1, 2)):
        failures.append(f"Julia risks {julia.risks} != (1, 1/2)")
    _conclude(criterion_log, 3, failures,
              "Julia's first version is pinned (risk 1) while her second "
              "stays at 1/2")


def test_criterion_04_path_weights_and_risks_on_three_releases(
        three_layer_model, three_layer_history, three_layer_actual,
        criterion_log):
    failures = []
    fs = prune(build_sug(three_layer_history, three_layer_model))
    weights = sorted(path_weights(fs).values(), reverse=True)
    expected = [F(1, 18), F(1, 18), F(1, 36), F(1, 72), F(1, 72)]
    if weights != expected:
        failures.append(f"path weights {weights} != {expected}")
    if sum(weights, F(0)) != F(1, 6):
        failures.append(f"total mass {sum(weights, F(0))} != 1/6")
    report = disclosure_risks(fs, three_layer_actual)
    if report.risks != (F(1, 3), F(1, 6), F(1, 12)):
        failures.append(f"risks {report.risks} != (1/3, 1/6, 1/12)")
    _conclude(criterion_log, 4, failures,
              "five surviving paths weigh 2*(1/18)+1/36+2*(1/72) = 1/6 and "
              "grade the actual versions at 1/3, 1/6, 1/12; duplicate "
              "candidate values collapse into one node with "
              "multiplicity-share priors, so equal-value paths merge")


def test_criterion_05_graph_risks_match_joint_enumeration(criterion_log):
    failures = []
    rng = random.Random(2024)
    t0 = time.perf_counter()
    trials = 1000
    for trial in range(trials):
        model = _random_model(rng)
        candidates, actual = _random_instance(model, rng)
        fs = prune(build_sug(candidates, model))
        graph = disclosure_risks(fs, actual)
        oracle = risks_by_joint_oracle(candidates, model, actual)
        if graph.risks != oracle.risks:
            failures.append(f"trial {trial}: graph {graph.risks} != "
                            f"oracle {oracle.risks}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"{trials} instances took {elapsed:.1f} s")
    _conclude(criterion_log, 5, failures,
              f"{trials} random instances agree with the joint-enumeration "
              f"oracle in {elapsed:.1f} s")


def test_criterion_06_risk_bounds_and_graph_structure(desk_runs, star_runs,
                                                      criterion_log):
    failures = []
    rng = random.Random(99)

    # (a) appending a uniformly fully-mixing release never moves old risks
    for trial in range(500):
        n = rng.randint(2, 5)
        domain = [f"v{i}" for i in range(n)]
        mixing = UpdateModel.uniform({v: set(domain) for v in domain},
                                     domain)
        depth = rng.randint(1, 3)
        candidates = [rng.sample(domain, rng.randint(1, n))
                      for _ in range(depth)]
        actual = [rng.choice(layer) for layer in candidates]
        before = disclosure_risks(prune(build_sug(candidates, mixing)),
                                  actual).risks
        extended = candidates + [list(domain)]
        after = disclosure_risks(prune(build_sug(extended, mixing)),
                                 actual + [rng.choice(domain)]).risks
        if after[:depth] != before:
            failures.append(f"(a) trial {trial}: {before} became "
                            f"{after[:depth]}")
            break

    # (b) certainty happens exactly when one candidate survives
    for trial in range(500):
        model = _random_model(rng)
        candidates, actual = _random_instance(model, rng)
        fs = prune(build_sug(candidates, model))
        report = disclosure_risks(fs, actual)
        for i, risk in enumerate(report.risks, start=1):
            if (risk == 1) != (len(layer_values(fs, i)) == 1):
                failures.append(f"(b) trial {trial} layer {i}: risk {risk} "
                                f"with {len(layer_values(fs, i))} nodes")
                break
        else:
            continue
        break

    # (c) published candidate graphs are already consistent and m-wide
    _, model10 = synthetic_schema(DESK["d"], DESK["sensitive_size"])
    for m, report in desk_runs[0].items():
        candidate_lists: dict[str, list[list[str]]] = {}
        for release in report.published:
            for rid, group in release.group_of().items():
                candidate_lists.setdefault(rid, []).append(list(group.values))
        for rid, candidates in candidate_lists.items():
            sug = build_sug(candidates, model10)
            fs = prune(sug)
            depths = range(1, sug.depth + 1)
            if [set(layer_values(sug, i)) for i in depths] != \
                    [set(layer_values(fs, i)) for i in depths]:
                failures.append(f"(c) m={m} record {rid}: pruning removed "
                                f"candidates")
                break
            if any(len(layer_values(sug, i)) < m for i in depths):
                failures.append(f"(c) m={m} record {rid}: a layer has fewer "
                                f"than {m} candidates")
                break
        if failures:
            break

    # (d) the strict variant bounds every risk by 1/m
    for (m, d), report in star_runs.items():
        if not report.verify_ok:
            failures.append(f"(d) star m={m} d={d}: verify failed")
        if report.max_risk > F(1, m):
            failures.append(f"(d) star m={m} d={d}: max risk "
                            f"{report.max_risk} > 1/{m}")

    _conclude(criterion_log, 6, failures,
              "mixing appends keep risks fixed (500 trials), risk 1 iff one "
              "candidate survives (500 trials), published graphs prune-free "
              "with >= m candidates per layer, strict runs capped at 1/m")


def test_criterion_07_invalidations_track_update_width(minv_runs,
                                                       criterion_log):
    failures = []
    narrow = [r.invalidated for r in minv_runs[1].releases]
    if any(narrow):
        failures.append(f"width-1 run invalidated {narrow}")
    wide = [r.invalidated for r in minv_runs[10].releases]
    cumulative = []
    total = 0
    for count in wide:
        total += count
        cumulative.append(total)
    if len(wide) < 3:
        failures.append(f"only {len(wide)} releases")
    if cumulative[2] == 0:
        failures.append("no invalidations by release 3")
    if any(b < a for a, b in zip(cumulative, cumulative[1:])):
        failures.append(f"cumulative count not monotone: {cumulative}")
    _conclude(criterion_log, 7, failures,
              f"width-1 churn invalidates nothing; width-10 churn "
              f"invalidates {cumulative[-1]} records over {len(wide)} "
              f"releases, monotonically")


def test_criterion_08_desk_scale_runs_hold_all_guarantees(desk_runs,
                                                          criterion_log):
    failures = []
    runs, elapsed = desk_runs
    for m, report in runs.items():
        if len(report.releases) != DESK["n_releases"]:
            failures.append(f"m={m}: {len(report.releases)} releases")
        if not report.verify_ok:
            failures.append(f"m={m}: verify failed "
                            f"({report.violations[:1]})")
        if report.vulnerable != 0 or any(r.vulnerable for r in
                                         report.releases):
            failures.append(f"m={m}: fully disclosed versions appeared")
        try:
            medians = [report.pooled_medians[t] for t in DESK["thetas"]]
        except KeyError:
            failures.append(f"m={m}: no query medians")
            continue
        if any(med < 0 for med in medians):
            failures.append(f"m={m}: negative median")
        if not all(a >= b for a, b in zip(medians, medians[1:])):
            failures.append(f"m={m}: medians {medians} not non-increasing "
                            f"in query width")
    if elapsed >= 600:
        failures.append(f"three runs took {elapsed:.0f} s")
    detail = "; ".join(
        f"m={m}: medians " + ", ".join(f"{float(report.pooled_medians[t]):.3f}"
                                       for t in DESK["thetas"])
        for m, report in runs.items())
    _conclude(criterion_log, 8, failures,
              f"verified, zero disclosures throughout, {detail}; "
              f"{elapsed:.0f} s total")


def test_criterion_09_identical_configs_reproduce_byte_identical_outputs(
        desk_runs, tmp_path_factory, criterion_log):
    failures = []
    first = desk_runs[0][2]
    second = run_experiment(ExperimentConfig(m=2, **DESK))
    root = tmp_path_factory.mktemp("rerun")
    schema, _ = synthetic_schema(DESK["d"], DESK["sensitive_size"])
    for label, report in (("a", first), ("b", second)):
        out_dir = root / f"report_{label}"
        write_report_files(out_dir, report)
        store = HistoryStore(root / f"history_{label}")
        store.path.mkdir()
        store.write_schema(schema)
        for release, snapshot in zip(report.published, report.snapshots):
            store.write_release(release, schema)
            store.write_actuals(release.release_index, schema, snapshot)

    for name in ("report.csv", "summary.csv"):
        a = (root / "report_a" / name).read_bytes()
        b = (root / "report_b" / name).read_bytes()
        if a != b:
            failures.append(f"{name} differs between reruns")
    names_a = sorted(p.name for p in (root / "history_a").iterdir())
    names_b = sorted(p.name for p in (root / "history_b").iterdir())
    if names_a != names_b:
        failures.append("history directories hold different files")
    else:
        diff = [n for n in names_a
                if (root / "history_a" / n).read_bytes()
                != (root / "history_b" / n).read_bytes()]
        if diff:
            failures.append(f"history files differ: {diff}")
    _conclude(criterion_log, 9, failures,
              f"reports and all {len(names_a)} serialized history files are "
              f"byte-identical across reruns")
