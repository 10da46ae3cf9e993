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

from treewedge.suites import SUITES, RunConfig, run_suite

CONFIG = RunConfig()  # anchors w, w*2, w^2, w^2+w, w^3 and naturals <= 64

# sha256 of each report at CONFIG, serialized as the CLI's --json report:
# the benchmark runs the suites at this config, so a speed-up must keep
# these bytes as well as test_golden's small-config ones
DIGESTS = {
    "coherence": "0cbf33269682b031303e1e94d9bb7c1eb83f6db7faaec6775f2d5198786ee1dc",
    "delta-x": "ce03a2f7a0709ce4a0d284e2c4da832f466bb9d9d332ba99324886d9916c7547",
    "tree-closure": "7e1f0ef40584f39fc35969b2d4d31ef995df872fdeb81daaaa4b388a5d56c836",
    "wedge-safe": "7af8e3b80778b002502a9997e771316dc75b9e34e3d82f25b71f211b912eb8c6",
    "wedge-oracle": "7adb59905224f32f17c0e277373e55f7c7b707e02eca722ff7087c9242b73142",
    "sorgenfrey": "4ae950f852ac81624f2ab5b063b2ab4438d8d86de2a38a4250e8952f4122a32c",
    "forcing-ccc": "73a681097e13c44962cb4e706385cbb9e4b32bf09057e1c59063fe57a6ac88d2",
    "forcing-density": "accbcd7dd47a9afdf90521467e68003eb4d0913f46dfbe86c4cba8a01a860247",
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
