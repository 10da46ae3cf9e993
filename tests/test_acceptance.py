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
from dataclasses import replace

import pytest

from treewedge.suites import SUITES, RunConfig, run_suite

CONFIG = RunConfig()  # anchors w, w*2, w^2, w^2+w, w^3 and naturals <= 64

# sha256 of each report at CONFIG, serialized as the CLI's --json report:
# the benchmark runs the suites at this config, so a speed-up must keep
# these bytes as well as test_golden's small-config ones
DIGESTS = {
    "coherence": "93252ed6e21fa1d20af7b79b8c7de3b3695c46a7b4c50ec28525790f90c1185d",
    "delta-x": "66aacefc16bce18bef7e1d14b438f425ee0719bf7c2959bf9ca06f7365453f2f",
    "tree-closure": "94f0078d0004771a92fdbb67a3fbf282a9b87926aaed1ac6b7679fa26552afac",
    "wedge-safe": "686cc984224c6aca835c7bf23ab225b1bcb6522e11fa385030ed58d02b37d5fb",
    "wedge-oracle": "1b001d9c775fceae122326562951e6d57ed57ad86b56c217c71b3c0340e0358d",
    "sorgenfrey": "75c9b113141d87cae0ecf1859f8b834cb690e7e88c02ddf8d4d9f8d982382ea2",
    "forcing-ccc": "95dd739db3fd7840391329d83d27a163eff0a4989832b46ead8aa431078fe74a",
    "forcing-density": "dd4dd213981337d8f02a3c56d5093ab7e78ba54ebb29880f4d7aacf9ec8157a9",
}

# sha256 of the wedge-oracle report at CONFIG with other seeds (seed 0 is in
# DIGESTS): while every rule passes, the report holds counts, not the drawn
# rules, so these digests differ only by the report's config.seed
ORACLE_SEED_DIGESTS = {
    1: "08c0c497ae0d062f4590189b5eb73b27c99a4ce45f7e29b91b1e9e24201c669a",
    7: "46b80a44a558aed8be0b3fa282c560776332756b2786121479d36b71afae8104",
    123: "e2de4a0a6386fce55bd3e9f94138b264176ee195252601b850da977c5c315547",
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
    report = run_suite("wedge-oracle", replace(CONFIG, seed=seed))
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
