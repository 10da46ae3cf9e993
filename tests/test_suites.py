"""Suite properties whose checks are counted by a setting fail when the
setting makes that count zero, so a run that checked nothing cannot pass."""

from dataclasses import replace

from treewedge.suites import SUITES, RunConfig, run_suite

SMALL = RunConfig(nat_anchors=16, oracle_max=3000, oracle_sample=500)


def _failed(name, config):
    return [f"{name}::{p['name']}" for p in run_suite(name, config)["properties"] if not p["passed"]]


def test_zero_trials_fail_the_counted_properties():
    config = replace(SMALL, trials=0)
    failed = [prop for name in SUITES for prop in _failed(name, config)]
    assert failed == [
        "coherence::injectivity-per-anchor",
        "forcing-ccc::union-of-delta-system-pairs",
        "forcing-density::extensions-valid",
    ]


def test_zero_enumeration_budget_fails_splitting_degrees():
    assert _failed("tree-closure", replace(SMALL, budget_enum=0)) == ["tree-closure::splitting-degrees"]


def test_zero_oracle_samples_fail_the_sampled_jobs():
    failed = _failed("wedge-oracle", replace(SMALL, oracle_sample=0))
    assert failed == ["wedge-oracle::oracle-binary-h4", "wedge-oracle::oracle-ternary-h4"]
