"""A suite property that made no check fails, so a run that checked nothing
cannot pass, whether a setting or a fault left it nothing to check; and the
enumerated properties fail on a fault planted at a single point."""

import json

import pytest

from treewedge import suites
from treewedge.cli import build_parser, merge_config, run_query
from treewedge.coherent import CoherentSystem
from treewedge.families import DigitFamily
from treewedge.forcing import ExtensionError
from treewedge.gen import grid_below
from treewedge.ordinal import parse_cnf
from treewedge.sorgenfrey import Box, TaggedPoint
from treewedge.suites import SUITES, RunConfig, Tally, _points, run_suite
from treewedge.wedge import SafeSubtree

SMALL = RunConfig(nat_anchors=16, oracle_max=3000, oracle_sample=500)


def _failed(name, config):
    return [f"{name}::{p['name']}" for p in run_suite(name, config)["properties"] if not p["passed"]]


def test_zero_trials_fail_the_counted_properties():
    config = SMALL._replace(trials=0)
    failed = [prop for name in SUITES for prop in _failed(name, config)]
    assert failed == [
        "coherence::injectivity-per-anchor",
        "delta-x::delta-complete-on-grid",
        "forcing-ccc::union-of-delta-system-pairs",
        "forcing-density::extensions-valid",
        "forcing-density::explicit-refusals-exhaustive",
    ]


def test_zero_enumeration_budget_fails_splitting_degrees():
    assert _failed("tree-closure", SMALL._replace(budget_enum=0)) == ["tree-closure::splitting-degrees"]


def test_zero_oracle_samples_fail_the_sampled_jobs():
    failed = _failed("wedge-oracle", SMALL._replace(oracle_sample=0))
    assert failed == ["wedge-oracle::oracle-binary-h4", "wedge-oracle::oracle-ternary-h4"]


def test_an_empty_safe_set_fails_the_safe_set_properties(monkeypatch):
    # every drawn member is then outside the set, so every check of both
    # properties fails
    monkeypatch.setattr(SafeSubtree, "safe", lambda self, x: False)
    report = {p["name"]: p for p in run_suite("wedge-safe", SMALL)["properties"]}
    for name in ("safe-set-downward-closed", "safe-set-filter-is-rule"):
        assert not report[name]["passed"]
        assert report[name]["note"].startswith("100 checks, 100 failed; members drawn as embedded bit nodes")


def test_a_full_safe_set_fails_the_filter_property(monkeypatch):
    # the non-member with a digit >= 2 is then inside the set
    monkeypatch.setattr(SafeSubtree, "safe", lambda self, x: True)
    report = {p["name"]: p for p in run_suite("wedge-safe", SMALL)["properties"]}
    assert report["safe-set-downward-closed"]["passed"]
    assert report["safe-set-filter-is-rule"]["note"].startswith("100 checks, 100 failed")


# --- the tally every property keeps ---

def test_tally_counts_checks_failures_and_skips():
    tally = Tally("p")
    for cond in (True, 1, "yes"):
        tally.check(cond)
    tally.skip("equal points")
    tally.skip("undecided")
    tally.skip("equal points")
    assert tally.result("over 2 anchors") == {
        "name": "p",
        "passed": True,
        "note": "3 checks, 0 failed, 2 skipped (equal points), 1 skipped (undecided); over 2 anchors",
    }
    tally.check(0)
    tally.check(None)
    assert tally.result() == {
        "name": "p",
        "passed": False,
        "note": "5 checks, 2 failed, 2 skipped (equal points), 1 skipped (undecided)",
    }


def test_a_tally_with_no_check_fails():
    assert Tally("p").result() == {"name": "p", "passed": False, "note": "0 checks, 0 failed"}
    skipped = Tally("p")
    skipped.skip("undecided")
    assert not skipped.result()["passed"]
    batch = Tally("p")
    batch.checks = 7  # a batch counted elsewhere
    assert batch.result()["passed"]


# --- a report's "config" block is RunConfig._asdict(): flat, in field order ---

# the block of the default config, byte for byte as reports have always had it
DEFAULT_CONFIG_JSON = (
    '{"anchors": ["w", "w*2", "w^2", "w^2+w", "w^3"], "nat_anchors": 64, "seed": 0, '
    '"trials": 1000, "budget_enum": 64, "oracle_max": 100000, "oracle_sample": 20000}'
)


def _file_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("suite=delta-x\nseed=5\nanchors=w, w*3, w^(w)\noracle-max=7\n")
    config, _ = merge_config(build_parser().parse_args(["--config", str(path)]))
    return config


def test_config_block_is_flat_asdict(tmp_path):
    assert json.dumps(RunConfig()._asdict()) == DEFAULT_CONFIG_JSON
    configs = [
        RunConfig(),
        RunConfig(anchors=("w^2", "w*5"), seed=3),
        SMALL._replace(trials=20),
        _file_config(tmp_path),
    ]
    assert configs[3].anchors == ("w", "w*3", "w^(w)")
    for config in configs:
        block = config._asdict()
        assert type(block) is dict and list(block) == list(RunConfig._fields)
        # flat: every value is an int or a tuple of strings
        assert all(type(v) is int or all(type(a) is str for a in v) for v in block.values())
        assert run_query("eval-e w 3", config)["config"] == block


# --- the enumerated properties catch a fault at a single grid point ---

def _failed_with(monkeypatch, cls, attr, make, suite):
    monkeypatch.setattr(cls, attr, make(getattr(cls, attr)))
    return _failed(suite, SMALL)


def test_a_shared_value_fails_injectivity(monkeypatch):
    anchor, xi, eta = parse_cnf("w^2"), parse_cnf("w*3+2"), parse_cnf("w*5")

    def make(eval_e):
        return lambda self, alpha, pos: eval_e(self, alpha, eta if (alpha, pos) == (anchor, xi) else pos)

    assert xi in set(grid_below(anchor)) and eta in set(grid_below(anchor))
    failed = _failed_with(monkeypatch, CoherentSystem, "eval_e", make, "coherence")
    assert "coherence::injectivity-per-anchor" in failed
    assert "coherence::values-odd" not in failed


def test_an_even_value_fails_values_odd(monkeypatch):
    anchor, xi = parse_cnf("w^2+w"), parse_cnf("w^2+3")

    def make(eval_e):
        return lambda self, alpha, pos: 6 if (alpha, pos) == (anchor, xi) else eval_e(self, alpha, pos)

    assert "coherence::values-odd" in _failed_with(monkeypatch, CoherentSystem, "eval_e", make, "coherence")


def test_a_digit_query_wrong_at_flips_fails_embedding(monkeypatch):
    def make(query):
        def wrong_at_flips(self, x, xi):
            digit = query(self, x, xi)
            return 1 - digit if x.base is not None and xi in x.base.flips else digit

        return wrong_at_flips

    failed = _failed_with(monkeypatch, DigitFamily, "query", make, "tree-closure")
    assert "tree-closure::embedding-pointwise" in failed


# --- the Sorgenfrey space is listed, and its properties check all of it ---

def test_the_point_space_is_listed_in_order_and_checked():
    points = _points()
    assert len(points) == 1248
    assert all(a < b for a, b in zip(points, points[1:]))  # sorted, so distinct
    assert len(set(points)) == 1248
    for p in points:
        assert len(p.seq) <= 4 and max(p.seq) < 5 and p.seq[-1] > 0
        # the trusted point passes the checked constructor unchanged
        checked = TaggedPoint(p.side, p.seq)
        assert checked == p and hash(checked) == hash(p)


def test_a_box_that_admits_the_next_point_fails_isolation(monkeypatch):
    points = _points()
    x, nxt = points[500], points[501]
    contains = Box.contains

    def admits_next(self, pair):
        return (self.first.lo == x and pair[0] == nxt) or contains(self, pair)

    monkeypatch.setattr(Box, "contains", admits_next)
    assert _failed("sorgenfrey", SMALL) == ["sorgenfrey::isolation-boxes"]


def test_a_between_point_at_the_lower_bound_fails_between_strict(monkeypatch):
    points = _points()
    a, b = points[700], points[701]

    def make(find_between):
        return lambda x, y: x if (x, y) == (a, b) else find_between(x, y)

    monkeypatch.setattr(suites, "find_between", make(suites.find_between))
    assert "sorgenfrey::between-strict" in _failed("sorgenfrey", SMALL)


def test_a_pair_that_does_not_extend_fails_the_union_property(monkeypatch):
    def make(extend_to_include):
        def refuse(family, p, x):
            if x == "000":
                raise ExtensionError("planted")
            return extend_to_include(family, p, x)

        return refuse

    monkeypatch.setattr(suites, "extend_to_include", make(suites.extend_to_include))
    report = {p["name"]: p for p in run_suite("forcing-ccc", SMALL)["properties"]}
    union = report["union-of-delta-system-pairs"]
    assert not union["passed"] and "skipped" not in union["note"]
    assert report["union-symbolic-pairs"]["passed"]


def test_a_wrong_refusal_fails_the_refusal_search(monkeypatch):
    # node 00 of the explicit tree has children, so refusing it outright
    # refuses extensions that exist
    def make(extend_to_include):
        def refuse(family, p, x):
            if x == "00":
                raise ExtensionError("planted")
            return extend_to_include(family, p, x)

        return refuse

    monkeypatch.setattr(suites, "extend_to_include", make(suites.extend_to_include))
    report = {p["name"]: p for p in run_suite("forcing-density", SMALL)["properties"]}
    assert not report["explicit-refusals-exhaustive"]["passed"]
    assert report["extensions-valid"]["passed"]


@pytest.mark.parametrize("seed", [0, 7])
def test_the_listed_and_built_fixtures_skip_nothing(seed):
    config = RunConfig(seed=seed)
    for name in ("delta-x", "sorgenfrey", "forcing-ccc"):
        for prop in run_suite(name, config)["properties"]:
            assert prop["passed"] and "skipped" not in prop["note"], (name, prop)


def test_forcing_density_counts_every_key_it_cannot_include(monkeypatch):
    # every ExtensionError raised while a condition's keys are drawn is a
    # skip of its own reason, not a silently shorter condition
    drawing, dropped = [False], [0]

    def counting(extend_to_include):
        def extend(family, p, x):
            try:
                return extend_to_include(family, p, x)
            except ExtensionError:
                dropped[0] += drawing[0]
                raise

        return extend

    def while_drawing(draw):
        def wrapped(*args):
            drawing[0] = True
            try:
                return draw(*args)
            finally:
                drawing[0] = False

        return wrapped

    monkeypatch.setattr(suites, "extend_to_include", counting(suites.extend_to_include))
    for name in ("_random_explicit_condition", "_random_symbolic_condition"):
        monkeypatch.setattr(suites, name, while_drawing(getattr(suites, name)))
    extended = run_suite("forcing-density", RunConfig())["properties"][0]
    assert extended["name"] == "extensions-valid" and extended["passed"]
    assert dropped[0] == 69  # 57 explicit and 12 symbolic keys at seed 0
    assert f"{dropped[0]} skipped (ExtensionError drawing a key)" in extended["note"]
