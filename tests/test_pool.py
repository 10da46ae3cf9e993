"""Replay of the benchmark's query pool through the CLI.

``perfbench/pool.json`` holds 1,500 one-off queries with a golden digest of
each answer.  Every answer must match its golden.  The pool is read, never
written.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from treewedge import cli

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_queries():
    spec = importlib.util.spec_from_file_location("perfbench_queries", ROOT / "perfbench" / "queries.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pool_answers_match_goldens(monkeypatch):
    queries = _perfbench_queries()
    monkeypatch.chdir(ROOT)  # table(perfbench/...) literals name files from the repo root
    verdicts = Counter()
    failures = []
    for query, golden in queries.load_pool():
        _, code, out, _, error = queries.run_query(cli.main, query)
        verdict = queries.check(query, code, out, error, golden)
        verdicts[verdict] += 1
        if verdict != "ok":
            failures.append((query, verdict))
    assert failures == []
    assert verdicts == {"ok": 1500}
