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
    "coherence": "2a63a8d627a89a3e695e801baac88d41f2eefccdb701b616f37da5f61e51124b",
    "delta-x": "f5247be2b3ca77f703d5675734698ef5b98adbe624df05f1789264d8286c709c",
    "tree-closure": "4a3c4fea226e45567ead4fd8c112d6ffc32ee4bac1b134ed5e88b434a4b06e2c",
    "wedge-safe": "9fd5af7a0382061e257c3871b3afbb2e22d941453aad6011eabd4547f67dc9b6",
    "wedge-oracle": "1953334a1868bf534b438f77e5e1c4002d4770732465876352f21d31965c98d5",
    "sorgenfrey": "0ffdd12709e1fce2231bbdf157f25378349b21dda885303a9651fc96353bff27",
    "forcing-ccc": "bacd95958f3848b171e25512b53ea7fc86534b10491e8912d509b7f94c20794e",
    "forcing-density": "13fc1dac178196110ce057031e60e8d1303b56ac3f2d2f1222cdb51adc99d2f6",
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
