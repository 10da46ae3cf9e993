"""Suite properties whose checks are counted by a setting fail when the
setting makes that count zero, so a run that checked nothing cannot pass."""

import json
from dataclasses import asdict, replace

from treewedge.cli import build_parser, merge_config
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


# --- RunConfig.as_dict is the flat form of dataclasses.asdict ---

def _file_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("suite=delta-x\nseed=5\nanchors=w, w*3, w^(w)\noracle-max=7\n")
    config, _ = merge_config(build_parser().parse_args(["--config", str(path)]))
    return config


def test_as_dict_matches_asdict(tmp_path):
    configs = [
        RunConfig(),
        RunConfig(anchors=("w^2", "w*5"), seed=3),
        replace(SMALL, trials=20),
        _file_config(tmp_path),
    ]
    assert configs[3].anchors == ("w", "w*3", "w^(w)")
    for config in configs:
        assert config.as_dict() == asdict(config)
        # a report's "config" entry: the same bytes, not only equal values
        flat, deep = (json.dumps(d, sort_keys=True, indent=2) for d in (config.as_dict(), asdict(config)))
        assert flat == deep
