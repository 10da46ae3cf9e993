"""Batch front end: run verification suites or one-off queries, emit JSON.

Reports are deterministic: they embed the config and the library version,
carry no timestamps, and all randomness comes from the seed, so identical
(config, seed) pairs produce byte-identical JSON.

Exit codes: 0 all properties pass (or the query was answered), 1 a property
failed (or the query answered an error, including an unreadable tree file),
2 usage error: a bad flag, command or target, an unreadable config file or
a config value that does not parse, or a --json path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .forcing import simulate_filter, serialize_condition
from .literals import UsageError, format_node, parse_cover, parse_node, parse_target, split_top
from .ordinal import parse_cnf, to_cnf
from .sorgenfrey import format_interval, format_point, isolating_box, neg, parse_point
from .suites import SUITES, RunConfig, Workspace, run_suite
from .trees import ExplicitTree
from .wedge import CoverUndecided, covers_within, find_safe_point, is_safe

# Kept for callers that still import the old name: the benchmark harness
# builds and traces query contexts as cli.QueryContext.
QueryContext = Workspace


def load_config_file(path: str) -> dict:
    """Flat key=value lines mirroring the command line flags."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewedge",
        description="verification suites and queries for the tree-topology workbench",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--json", dest="json_path", help="write the JSON report here")
    parser.add_argument("--suite", help=f"one of: {', '.join(sorted(SUITES))}")
    parser.add_argument("--query", help="single operation, e.g. 'eval-e w 3'")
    parser.add_argument("--budget-enum", type=int, help="enumeration budget")
    parser.add_argument("--budget-range", type=int, help="range search budget")
    parser.add_argument("--trials", type=int, help="randomized trial count")
    return parser


def merge_config(args) -> tuple[RunConfig, dict]:
    """RunConfig from the flags, then the config file, then the field
    defaults.  A file key is the field name with '-' for '_'."""
    file_cfg = load_config_file(args.config) if args.config else {}
    values = {}
    for field in fields(RunConfig):
        flag_value = getattr(args, field.name, None)
        key = field.name.replace("_", "-")
        if flag_value is not None:
            values[field.name] = flag_value
        elif key in file_cfg:
            try:
                values[field.name] = _cast(field.default, file_cfg[key])
            except ValueError as err:
                raise UsageError(f"{key}={file_cfg[key]}: {err}") from err
    config = RunConfig(**values)
    actions = {
        "suite": args.suite or file_cfg.get("suite"),
        "query": args.query or file_cfg.get("query"),
        "json": args.json_path or file_cfg.get("json"),
    }
    return config, actions


def _cast(default, text: str):
    if isinstance(default, tuple):
        # anchors: parse them now, so a bad one stops the run before any suite
        anchors = tuple(s.strip() for s in text.split(","))
        for a in anchors:
            parse_cnf(a)
        return anchors
    return type(default)(text)


def load_tree(path: str) -> ExplicitTree:
    return ExplicitTree.from_text(Path(path).read_text())


def run_query(expr: str, config: RunConfig) -> dict:
    tokens = split_top(expr, None)
    if not tokens:
        raise UsageError("empty query")
    cmd, args = tokens[0], tokens[1:]
    ws = Workspace(config)
    try:
        result = _dispatch(ws, cmd, args)
    except UsageError:
        raise
    except (ValueError, KeyError, CoverUndecided, OSError) as err:  # ValueError covers CNFSyntaxError
        result = {"error": f"{type(err).__name__}: {err}"}
    return {
        "version": __version__,
        "config": config.as_dict(),
        "query": expr,
        "result": result,
    }


ARITY = {"eval-e": 2, "delta-e": 2, "delta-x": 2, "is-safe": 2, "find-safe": 2, "covers-within": 2, "isolate": 1}


def _dispatch(ws: Workspace, cmd: str, args: list[str]) -> dict:
    n = ARITY.get(cmd)
    if n is not None and len(args) != n:
        raise UsageError(f"{cmd} takes {n} arguments, got {len(args)}")
    if cmd == "eval-e":
        return {"value": ws.coh.eval_e(parse_cnf(args[0]), parse_cnf(args[1]))}
    if cmd == "delta-e":
        delta = ws.coh.delta_e(parse_cnf(args[0]), parse_cnf(args[1]))
        return {"delta": sorted(to_cnf(x) for x in delta)}
    if cmd == "delta-x":
        a, b = parse_cnf(args[0]), parse_cnf(args[1])
        return {
            "delta": sorted(to_cnf(x) for x in ws.bits.char_delta(a, b)),
            "candidates": sorted(to_cnf(x) for x in ws.bits.char_delta_candidates(a, b)),
        }
    if cmd == "is-safe":
        cover = parse_cover(args[0], ws.digits, load_tree)
        node = parse_node(cover.family, args[1])
        return {"safe": is_safe(cover, node)}
    if cmd == "find-safe":
        cover = parse_cover(args[0], ws.digits, load_tree)
        found = find_safe_point(cover, parse_cnf(args[1]), budget=ws.config.budget_enum)
        return {"node": None if found is None else format_node(cover.family, found)}
    if cmd == "covers-within":
        cover = parse_cover(args[0], ws.digits, load_tree)
        return {"covered": covers_within(cover, parse_cnf(args[1]))}
    if cmd == "isolate":
        x = parse_point(args[0])
        u, v, box = isolating_box(x)
        return {
            "u": format_point(u),
            "v": format_point(v),
            "box": [format_interval(box.first), format_interval(box.second)],
            "checks": {"contains_own_pair": box.contains((x, neg(x)))},
        }
    if cmd == "simulate":
        targets = [parse_target(ws.digits, t) for t in args]
        _, report = simulate_filter(ws.digits, targets, budget=ws.config.budget_enum)
        return report
    if cmd == "extend":
        targets = [parse_target(ws.digits, t) for t in args]
        p, _ = simulate_filter(ws.digits, targets, budget=ws.config.budget_enum)
        return {"condition": serialize_condition(ws.digits, p)}
    raise UsageError(f"unknown query command {cmd!r}")


def emit(report: dict, json_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if json_path:
        Path(json_path).write_text(text + "\n")
    if "properties" in report:
        for prop in report["properties"]:
            mark = "PASS" if prop["passed"] else "FAIL"
            note = f"  [{prop['note']}]" if prop.get("note") else ""
            print(f"{mark} {report['suite']}::{prop['name']}{note}")
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, actions = merge_config(args)
    except (OSError, ValueError) as err:  # unreadable or undecodable file, bad line or value
        print(f"error: {err}", file=sys.stderr)
        return 2
    if bool(actions["suite"]) == bool(actions["query"]):
        print("error: exactly one of --suite or --query is required", file=sys.stderr)
        return 2
    try:
        if actions["suite"]:
            report = run_suite(actions["suite"], config)
        else:
            report = run_query(actions["query"], config)
        emit(report, actions["json"])
    except (UsageError, KeyError, OSError) as err:  # OSError: the --json path
        print(f"error: {err}", file=sys.stderr)
        return 2
    if actions["suite"]:
        return 0 if report["pass"] else 1
    return 0 if "error" not in report["result"] else 1


if __name__ == "__main__":
    sys.exit(main())
