"""Golden digests of every suite report at a small config.

A refactor must keep these bytes.  A change that alters a report on purpose
updates the digest here and says in CHANGES.md which suite changed and why.
The config is small so the whole file runs in a few seconds.
"""

import hashlib
import json

import pytest

from treewedge import ordinal
from treewedge.ordinal import Ordinal, from_canonical
from treewedge.suites import SUITES, RunConfig, run_suite

CONFIG = RunConfig(trials=60, nat_anchors=16, oracle_max=3000, oracle_sample=500)

GOLDEN = {
    "coherence": "cef272437966df145c8790b95b122f1c48d5eff4538e7d30a8e6591319be03d9",
    "delta-x": "e704f3102ef04a2eecd92b69f0542430009b366d9a0f3859f63a9b54f770b2af",
    "tree-closure": "089994a39989c60c11c5133e08a2397b3f64a818debddd7f44f1e27c32343893",
    "wedge-safe": "67eb8c5be6fa6f8c0ea2c4e2c689275ec1c5b425a6dda646057bb2958c48d13c",
    "wedge-oracle": "ff4852c5a5c0fe452397db771acdbc4b3e122ec78cfeb91db86ccb674f501075",
    "sorgenfrey": "04342faa79b28f9fe8776879c73440b86e9be997da9b4ce174121fe7558fb7ed",
    "forcing-ccc": "5f0dbee98009eda01e4ed6bfa48d473c2727f8b6fe68d9afe25bfdea62c72214",
    "forcing-density": "68f442177d3aceb6916e48d8bdcdc44cdf372d59493cb08b0b8f4fcf5a52f3b1",
}


def test_golden_covers_every_suite():
    assert set(GOLDEN) == set(SUITES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_suite_report_digest(name):
    report = run_suite(name, CONFIG)
    # the same serialization as the CLI's --json report
    text = json.dumps(report, sort_keys=True, indent=2)
    assert report["pass"]
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


def test_wedge_oracle_builds_no_ordinals(monkeypatch):
    # the benchmark's oracle workload is defined to bypass the ordinal layer;
    # both construction paths are counted: the checked Ordinal(...) and the
    # trusted from_canonical, whose every call allocates through ordinal._new
    calls = []
    init, new = Ordinal.__init__, ordinal._new

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    def counting_new(cls):
        calls.append(1)
        return new(cls)

    monkeypatch.setattr(Ordinal, "__init__", counting)
    monkeypatch.setattr(ordinal, "_new", counting_new)
    Ordinal([(ordinal.ZERO, 2)])
    from_canonical(((ordinal.ZERO, 2),))
    assert len(calls) == 2  # the counters see both paths
    calls.clear()
    run_suite("wedge-oracle", CONFIG)
    assert not calls
