import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from treewedge.cli import build_parser, main, run_query
from treewedge.literals import split_top
from treewedge.suites import RunConfig

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "treewedge", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_split_args_respects_brackets():
    assert split_top("is-safe subtree(T-in-U) u:[d0, d1]", None) == [
        "is-safe",
        "subtree(T-in-U)",
        "u:[d0, d1]",
    ]


def test_eval_e_query():
    report = run_query("eval-e w 3", RunConfig())
    assert report["result"] == {"value": 13}


def test_find_safe_query():
    report = run_query("find-safe subtree(T-in-U) w", RunConfig())
    assert report["result"]["node"] == "u:[tail(t:w:{}:[])@w]"


def test_find_safe_answers_what_covers_within_finds_without_a_budget(capsys):
    # the core witness leaves the rule; the row's only member leaves the
    # binary subtree, so the level search settles at u:[d1], and the
    # enumeration budget plays no part
    cover = "patched(subtree(T-in-U); u:[d0]=>{u:[d0,d2]})"
    assert main(["--query", f"covers-within {cover} 5"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"covered": False}
    assert main(["--budget-enum", "0", "--query", f"find-safe {cover} 5"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"node": "u:[d1,d0,d0,d0,d0]"}


def test_is_safe_query():
    config = RunConfig()
    assert run_query("is-safe subtree(T-in-U) u:[d7]", config)["result"] == {"safe": False}
    assert run_query("is-safe subtree(T-in-U) u:[d1,d0]", config)["result"] == {"safe": True}


def test_covers_within_query():
    report = run_query("covers-within subtree(T-in-U<w) w*2", RunConfig())
    assert report["result"] == {"covered": True}


def test_isolate_query():
    report = run_query("isolate L:1", RunConfig())
    assert report["result"]["checks"]["contains_own_pair"]
    assert report["result"]["u"].startswith("L:")


def test_isolate_rejects_negative_digits(capsys):
    for point in ("L:1.-1", "L:-1", "L:0.-2"):
        report = run_query(f"isolate {point}", RunConfig())
        assert report["result"] == {"error": "ValueError: digits must be naturals"}
        assert main(["--query", f"isolate {point}"]) == 1


@pytest.mark.parametrize(
    "query",
    [
        "isolate L:1_0",
        "isolate L:+1",
        "isolate R:\u0663",
        "is-safe subtree(T-in-U) u:[d\u0663]",
        "is-safe subtree(T-in-U) u:[tail(t:w:{}:[])@w,patch(0=+1)]",
        "is-safe subtree(T-in-U) u:[tail(t:w:{}:[])@w,patch(0= 1_0)]",
        "eval-e w*\u0663 1",
        "eval-e w^\u00b2 1",
    ],
)
def test_literal_digits_are_ascii_naturals(capsys, query):
    # int() and str.isdigit would read each of these as a number
    assert main(["--query", query]) == 1
    assert "error" in json.loads(capsys.readouterr().out)["result"]


def test_simulate_query():
    report = run_query("simulate include(u:[d0]) reach(w)", RunConfig())
    checks = report["result"]["checks"]
    assert checks["valid"] and checks["window_downward_closed"]


def test_extend_query():
    report = run_query("extend include(u:[d2,d2])", RunConfig())
    cond = report["result"]["condition"]
    assert len(cond) == 1
    assert cond[0]["node"] == "u:[d2,d2]"


def test_bad_query_is_usage_error():
    assert main(["--query", "frobnicate 1 2"]) == 2


def test_parse_error_reported():
    report = run_query("eval-e w+w 3", RunConfig())
    assert "error" in report["result"]


def test_deep_nesting_is_a_syntax_error():
    depth = 5000
    proc = run_cli(["--query", "eval-e " + "w^(" * depth + "1" + ")" * depth + " 3"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["result"]["error"].startswith("CNFSyntaxError")


def test_deep_patch_nesting_is_an_error_answer():
    depth = 3000
    proc = run_cli(["--query", "find-safe " + "patched(" * depth + "subtree(T-in-U)" + ")" * depth + " w"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["result"]["error"].startswith("ValueError")


@pytest.mark.parametrize(
    "query",
    [
        "delta-e w w*3000",
        "delta-e 27 w^(w^(w^24*6+w^13*4+w^4)*5+w^3*3)+w^(w^(w^10*3+w^8*3+w^2)*4+w^(w^4*2)*2+w^(w*4)*6)*2",
    ],
    ids=["long-tail", "deep-anchor"],
)
def test_long_descents_answer(query):
    proc = run_cli(["--query", query])
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "make_argv, code",
    [
        (lambda tmp: ["--query", "covers-within table(/nonexistent; r=>{0}) 1"], 1),
        (lambda tmp: ["--query", f"covers-within table({tmp}; r=>{{0}}) 1"], 1),
        (lambda tmp: ["--config", str(tmp), "--suite", "delta-x"], 2),
        (lambda tmp: ["--config", _write_config(tmp, "suite=delta-x\ntrials=abc\n")], 2),
        (lambda tmp: ["--config", _write_config(tmp, "suite=delta-x\nanchors=w,,w^\n")], 2),
        (lambda tmp: ["--config", _write_config(tmp, "suite=delta-x\ntrails=5\nbudget-range=10000\n")], 2),
        (lambda tmp: ["--query", "eval-e w 3", "--json", str(tmp / "missing" / "r.json")], 2),
    ],
    ids=["missing-tree", "tree-is-directory", "config-is-directory", "bad-cast", "bad-anchors", "unknown-key", "unwritable-json"],
)
def test_io_and_config_errors_exit_cleanly(tmp_path, capsys, make_argv, code):
    assert main(make_argv(tmp_path)) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert "Error" in json.loads(out)["result"]["error"]
    else:
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["--query", "simulate" + " reach(1)" * 65], 64),
        (["--query", "extend" + " reach(1)" * 65], 64),
        (["--budget-enum", "0", "--query", "simulate reach(1)"], 0),
    ],
    ids=["simulate-past-budget", "extend-past-budget", "zero-budget"],
)
def test_step_budget_is_an_error_answer(capsys, argv, budget):
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error == f"BudgetExceeded: more than {budget} extension steps"


@pytest.mark.parametrize(
    "make_argv, setting",
    [
        (lambda tmp: ["--trials", "-3", "--suite", "forcing-ccc"], "trials=-3"),
        (lambda tmp: ["--budget-enum", "-1", "--query", "find-safe subtree(T-in-U) w"], "budget-enum=-1"),
        (lambda tmp: ["--seed", "-1", "--query", "eval-e w 3"], "seed=-1"),
        (lambda tmp: ["--config", _write_config(tmp, "suite=wedge-oracle\noracle-sample=-1\noracle-max=1\n")], "oracle-sample=-1"),
    ],
    ids=["flag", "flag-budget", "flag-seed", "config-key"],
)
def test_negative_settings_are_usage_errors(tmp_path, capsys, make_argv, setting):
    assert main(make_argv(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {setting}: must not be negative\n"


def test_exit_codes(tmp_path):
    ok = run_cli(["--suite", "delta-x", "--json", str(tmp_path / "r.json")])
    assert ok.returncode == 0
    bad = run_cli(["--suite", "no-such-suite"])
    assert bad.returncode == 2
    both = run_cli(["--suite", "delta-x", "--query", "eval-e w 1"])
    assert both.returncode == 2


def test_zero_trials_fail_the_run():
    out = run_cli(["--suite", "coherence", "--trials", "0"])
    assert out.returncode == 1
    assert "FAIL coherence::injectivity-per-anchor  [0 checks, 0 failed; (anchor, position) pairs over 70 anchors, 0 on named anchors]" in out.stdout


def test_zero_oracle_samples_fail_the_run(tmp_path):
    cfg = _write_config(tmp_path, "suite=wedge-oracle\noracle-max=3000\noracle-sample=0\n")
    out = run_cli(["--config", cfg])
    assert out.returncode == 1
    assert "FAIL wedge-oracle::oracle-ternary-h4  [0 checks, 0 failed; seeded samples: space 96889010407 exceeds the guard 3000]" in out.stdout


def test_no_limit_anchor_skips_the_limit_draws(tmp_path):
    # wedge-safe: the properties that need a limit make no check and fail
    cfg = _write_config(tmp_path, "suite=wedge-safe\nanchors=w+1, 5\n")
    out = run_cli(["--config", cfg])
    assert out.returncode == 1
    assert out.stderr == ""
    assert "FAIL wedge-safe::safe-points-at-limits  [0 checks, 0 failed, 1 skipped (no limit anchor)]" in out.stdout
    assert "FAIL wedge-safe::safe-set-downward-closed  [0 checks, 0 failed, 100 skipped (no limit anchor)]" in out.stdout
    assert "PASS wedge-safe::truncated-safe-below-cut  [2 checks, 0 failed]" in out.stdout
    # forcing-density: only the symbolic fixtures need a limit; the explicit
    # ones are still checked, so its properties pass with the skips noted
    cfg = _write_config(tmp_path, "suite=forcing-density\nanchors=w+1, 5\n")
    out = run_cli(["--config", cfg])
    assert out.returncode == 0
    assert out.stderr == ""
    notes = [line for line in out.stdout.splitlines() if "skipped (no limit anchor)" in line]
    assert [line.split()[1] for line in notes] == [
        "forcing-density::extensions-valid",
        "forcing-density::simulation-fragments",
    ]


def test_table_over_two_roots_is_an_error_answer(tmp_path, capsys):
    path = tmp_path / "forest.txt"
    path.write_text("r -\n0 r\ns -\n")
    assert main(["--query", f"is-safe table({path}; r=>{{0}}) r"]) == 1
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error == "ValueError: a tree family needs one root, this tree has 2"


@pytest.mark.parametrize("command", ["covers-within", "find-safe"])
def test_level_past_the_tree_is_an_error_answer(tmp_path, capsys, command):
    path = tmp_path / "tree.txt"
    path.write_text("r -\n0 r\n1 r\n00 0\n")
    for level in (9, 3):
        assert main(["--query", f"{command} table({path}; r=>{{0}}) {level}"]) == 1
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error == f"ValueError: the tree has no level {level}: its height is 3"
    assert main(["--query", f"{command} table({path}; r=>{{0}}, 0=>{{00}}) 2"]) == 0


def test_table_witness_follows_its_rows_in_the_order_written(monkeypatch, capsys):
    # a table is a patch over its root, so its witness is the first node the
    # row search reaches: r=>{1,0} reaches 1 before 0
    monkeypatch.chdir(ROOT)  # table(perfbench/...) names a file from the repo root
    assert main(["--query", "find-safe table(perfbench/tree3x4.txt; r=>{1,0}) 1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"node": "1"}


def test_rows_patched_onto_a_table_are_checked(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["--query", "find-safe patched(table(perfbench/tree3x4.txt; r=>{0}); r=>{00}) 1"]) == 1
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error == "ValueError: '00' is not an immediate successor of 'r'"


def test_a_long_chain_of_table_rows_answers(tmp_path, capsys):
    # the row search keeps its own stack, so 2,000 chained rows nest no calls
    n = 2000
    path = tmp_path / "chain.txt"
    path.write_text("r -\nc1 r\n" + "".join(f"c{i} c{i - 1}\n" for i in range(2, n + 1)))
    rows = ", ".join(["r=>{c1}", *(f"c{i}=>{{c{i + 1}}}" for i in range(1, n))])
    assert main(["--query", f"find-safe table({path}; {rows}) {n}"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"node": f"c{n}"}
    assert main(["--query", f"covers-within table({path}; {rows}) {n}"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"covered": False}


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=delta-x\nseed=5\ntrials=100\n")
    out = run_cli(["--config", str(cfg), "--json", str(tmp_path / "r.json")])
    assert out.returncode == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["suite"] == "delta-x"
    assert report["config"]["seed"] == 5
    assert report["config"]["trials"] == 100


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=delta-x\nseed=5\n")
    out = run_cli(["--config", str(cfg), "--seed", "9", "--json", str(tmp_path / "r.json")])
    assert out.returncode == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"]["seed"] == 9


def test_tiny_oracle_budget_passes_with_notes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=wedge-oracle\noracle-max=10\noracle-sample=40\n")
    out = run_cli(["--config", str(cfg), "--json", str(tmp_path / "r.json")])
    assert out.returncode == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["pass"]
    assert any("seeded samples" in p["note"] for p in report["properties"])


def test_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        out = run_cli(["--suite", "sorgenfrey", "--seed", "3", "--trials", "50", "--json", str(path)])
        assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_embeds_version_and_config(tmp_path):
    path = tmp_path / "r.json"
    run_cli(["--suite", "delta-x", "--json", str(path)])
    report = json.loads(path.read_text())
    assert report["version"]
    assert "seed" in report["config"]


# --- the parser is built once per process and keeps no state between calls ---

def test_main_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    for _ in range(50):
        assert main(["--query", "eval-e w 3"]) == 0
    assert len(built) == 1


def test_flags_do_not_carry_over(capsys):
    assert main(["--trials", "5", "--query", "eval-e w 3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["trials"] == 5
    assert main(["--query", "eval-e w 3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["trials"] == 1000


def test_usage_error_leaves_the_parser_clean(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["--query", "eval-e w 3"]) == 0
    out, err = capsys.readouterr()
    fresh = run_cli(["--query", "eval-e w 3"])
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, out, err)
