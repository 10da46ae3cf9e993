"""Acceptance gate: one test per criterion, exact tolerances, wall-clock
budgets from the stated limits.  Each test prints its own PASS/FAIL line so
a -s run reads as a checklist; under plain pytest the verbose test names
serve the same purpose.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from treewedge.suites import SUITES, RunConfig, run_suite

CONFIG = RunConfig()  # anchors w, w*2, w^2, w^2+w, w^3 and naturals <= 64

# sha256 of each report at CONFIG, serialized as the CLI's --json report:
# the benchmark runs the suites at this config, so a speed-up must keep
# these bytes as well as test_golden's small-config ones
DIGESTS = {
    "coherence": "e0fa4142cfb72dcdfcc710e610362554ad3e005b1f1d6ec1e7fa294180848985",
    "delta-x": "323882c82cb4df1fc74439af9dd8d68f26b38bc46091e4269d915df7d756e922",
    "tree-closure": "5d839d9161f6b412dbab7c3539c732b5a2a2a3bd744db04f391bb2502dc55799",
    "wedge-safe": "61d064d6675d5aa6a0b8c71be558023fc6f1444a0395d07e89ef664636534441",
    "wedge-oracle": "2a9fe95d66a752701ef428de566dd85f6a498ec8be8b56c7ef91c04454c6b4c3",
    "sorgenfrey": "9d86c8b53ee4445bbab9176a586ee7365df53b6c6c1e414b25af7f0306f03bb3",
    "forcing-ccc": "63babf184ad45145e9dfc170ae3fb7bb93683873d1d12b5d8e373efac5da7cda",
    "forcing-density": "1304ff6dc08f5a0b410b19b8b4b12b62b4338a85a0d265b83e508aa49b801b38",
}

# sha256 of the wedge-oracle report at CONFIG with other seeds (seed 0 is in
# DIGESTS): while every rule passes, the report holds counts, not the drawn
# rules, so these digests differ only by the report's config.seed
ORACLE_SEED_DIGESTS = {
    1: "393afb72c96c8930e21c75da083fc94f7f891ef264ae00ff6731d9fa9f4f2263",
    7: "b11cb4c39ab91c038f5eb41b0eb275b5db64a5ceab3f4ac290ce5c1e47aaacb4",
    123: "7526c550c17f6c97d869bd8606d36d60a92937dc7bc53244d7d92a86756a006a",
}


def _criterion(number, name, suite_names, limit_seconds):
    t0 = time.time()
    reports = [run_suite(s, CONFIG) for s in suite_names]
    elapsed = time.time() - t0
    ok = all(r["pass"] for r in reports)
    in_time = elapsed < limit_seconds
    status = "PASS" if ok and in_time else "FAIL"
    print(f"{status} criterion {number} ({name}): {elapsed:.1f}s of {limit_seconds}s budget")
    for r in reports:
        for prop in r["properties"]:
            if not prop["passed"]:
                print(f"      failed property: {r['suite']}::{prop['name']}")
    assert ok, f"criterion {number} has failing properties"
    assert in_time, f"criterion {number} took {elapsed:.1f}s (budget {limit_seconds}s)"
    for r in reports:
        text = json.dumps(r, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[r["suite"]], r["suite"]


def test_digests_cover_every_suite():
    assert set(DIGESTS) == set(SUITES)


def test_criterion_1_coherence_suite():
    _criterion(1, "coherence", ["coherence"], 10)


def test_criterion_2_delta_bound_suite():
    _criterion(2, "delta bound", ["delta-x"], 10)


def test_criterion_3_closure_suites():
    _criterion(3, "tree closures", ["tree-closure"], 30)


def test_criterion_4_wedge_equivalence():
    _criterion(4, "wedge safety", ["wedge-safe"], 10)


def test_criterion_5_finite_oracle():
    # ternary height 4 has 7^13 bounded rules; the suite runs every class it
    # can exhaust and a seeded sample there, reported as such
    _criterion(5, "finite oracle", ["wedge-oracle"], 60)


@pytest.mark.parametrize("seed", sorted(ORACLE_SEED_DIGESTS))
def test_wedge_oracle_digest_at_other_seeds(seed):
    report = run_suite("wedge-oracle", CONFIG._replace(seed=seed))
    text = json.dumps(report, sort_keys=True, indent=2)
    assert report["pass"]
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_SEED_DIGESTS[seed]


def test_criterion_6_sorgenfrey_suite():
    _criterion(6, "order topology", ["sorgenfrey"], 30)


def test_criterion_7_forcing_suites():
    _criterion(7, "forcing", ["forcing-ccc", "forcing-density"], 60)


def test_criterion_8_deterministic_reports(tmp_path):
    t0 = time.time()
    paths = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "treewedge",
                "--suite",
                "forcing-density",
                "--seed",
                "11",
                "--trials",
                "120",
                "--json",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    # and the in-process route over every registered suite
    small = RunConfig(trials=60, oracle_sample=500)
    for name in ("coherence", "delta-x", "wedge-oracle", "sorgenfrey", "forcing-ccc"):
        first = json.dumps(run_suite(name, small), sort_keys=True)
        second = json.dumps(run_suite(name, small), sort_keys=True)
        identical = identical and first == second
    elapsed = time.time() - t0
    print(f"{'PASS' if identical else 'FAIL'} criterion 8 (determinism): {elapsed:.1f}s")
    assert identical
