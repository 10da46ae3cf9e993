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
    "coherence": "29df536ee2338abdf3dcc0557128df49542485e76b48ce928773d527d84c1ee1",
    "delta-x": "f6676b41076c3f57fc5f2ea6abf4f63b0a80d2e43e0b4990d413b9e8965fcef4",
    "tree-closure": "78d1c406b3cd24e63b3e3c534a08e62ab3c887eab32d7b5ee5b3e726d38c1f54",
    "wedge-safe": "498663a632dde64af08c9bc99125682e973e492874a2c0a304cbcdee26db7204",
    "wedge-oracle": "0abec03f09ee496afee270b283f406d60094b21a01ecc39145b6a49c6b7a0404",
    "sorgenfrey": "33573fb9af19f0b28d72a8a98b4f7728989f3498c34011b45aaa52aa64dbfa1c",
    "forcing-ccc": "5023bfa9bc054059fce4c2eef9618201a5473d27d66c44a5f4ff6913294a5234",
    "forcing-density": "22317a32fd2dfcccca90370c6fc6f080f7160439ade1a94031e4a918e0d39d19",
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
    # (tuple.__new__, which block_decompose's pairs go through as well)
    calls = []
    init, new = Ordinal.__init__, ordinal._new

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    def counting_new(cls, items):
        calls.append(1)
        return new(cls, items)

    monkeypatch.setattr(Ordinal, "__init__", counting)
    monkeypatch.setattr(ordinal, "_new", counting_new)
    Ordinal([(ordinal.ZERO, 2)])
    from_canonical(((ordinal.ZERO, 2),))
    assert len(calls) == 2  # the counters see both paths
    calls.clear()
    run_suite("wedge-oracle", CONFIG)
    assert not calls
