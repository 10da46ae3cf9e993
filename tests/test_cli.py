import json
import subprocess
import sys

import pytest

from treewedge.cli import main, run_query
from treewedge.literals import split_top
from treewedge.suites import RunConfig


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
        (lambda tmp: ["--query", "eval-e w 3", "--json", str(tmp / "missing" / "r.json")], 2),
    ],
    ids=["missing-tree", "tree-is-directory", "config-is-directory", "bad-cast", "bad-anchors", "unwritable-json"],
)
def test_io_and_config_errors_exit_cleanly(tmp_path, capsys, make_argv, code):
    assert main(make_argv(tmp_path)) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert "Error" in json.loads(out)["result"]["error"]
    else:
        assert err.startswith("error: ")


def test_exit_codes(tmp_path):
    ok = run_cli(["--suite", "delta-x", "--json", str(tmp_path / "r.json")])
    assert ok.returncode == 0
    bad = run_cli(["--suite", "no-such-suite"])
    assert bad.returncode == 2
    both = run_cli(["--suite", "delta-x", "--query", "eval-e w 1"])
    assert both.returncode == 2


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
