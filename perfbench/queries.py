"""The `queries` workload: a seeded stream of one-off CLI queries.

Every query goes through ``treewedge.cli.main(["--query", q])`` in this
process with stdout and stderr captured.  ``main`` builds a fresh query
context per call, so each query starts from a cold memo, as a
``treewedge --query`` process does.

The stream of one pass is

* ``CHEAP_PER_PASS`` queries drawn without replacement from the fixed pool in
  ``pool.json`` (made by ``make_pool.py``), which stores a golden digest of
  each answer;
* ``DEEP_EVAL`` deep ``eval-e w+m k`` queries, with the offsets m on a
  log-uniform grid over [10, 10^5] (the midpoints of equal strata of
  log m) and the position k drawn from the seed;
* ``DEEP_DELTA`` deep ``delta-e w*n w^2`` queries, n on a log-uniform grid
  over [2, 150].

The grids are the same for every seed, so the latency tail, where p99 sits,
has the same shape on every seed; the seed draws the cheap queries, the
positions and the order.

Deep queries carry formula goldens: a natural position k always has the
value 4k+1, and ``delta-e w*n w^2`` is {w, w*2, ..., w*(n-1)}.

Excluded on purpose: ``eval-e 99999999999999999999999 5`` walks down one
step per unit of the anchor and never finishes.  It has no latency to
measure: it would spend the whole deadline in every pass and always count as
failed.  Deep ``w+m`` offsets up to 10^5 expose the same linear walk.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import signal
import time
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

CHEAP_PER_PASS = 1000
DEEP_EVAL = 20
DEEP_DELTA = 20
DEADLINE_S = 5.0


class QueryDeadline(BaseException):
    """Raised by the alarm handler; BaseException so the CLI cannot swallow it."""


def digest(exit_code: int, result) -> str:
    text = json.dumps({"exit": exit_code, "result": result}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pool() -> list[tuple[str, str]]:
    data = json.loads(POOL_PATH.read_text())
    return [tuple(row) for row in data["queries"]]


def deep_queries(rng: random.Random) -> list[tuple[str, str]]:
    out = []
    for k in range(DEEP_EVAL):
        u = (k + 0.5) / DEEP_EVAL
        m = round(10 ** (1 + 4 * u))
        pos = rng.randrange(0, 50)
        out.append((f"eval-e w+{m} {pos}", digest(0, {"value": 4 * pos + 1})))
    for k in range(DEEP_DELTA):
        u = (k + 0.5) / DEEP_DELTA
        n = max(2, round(2 * 75**u))
        delta = sorted(["w"] + [f"w*{j}" for j in range(2, n)])
        out.append((f"delta-e w*{n} w^2", digest(0, {"delta": delta})))
    return out


def make_stream(seed: int, pool: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """(query, golden digest) pairs of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    stream = rng.sample(pool, CHEAP_PER_PASS) + deep_queries(rng)
    rng.shuffle(stream)
    return stream


def _on_alarm(signum, frame):
    raise QueryDeadline


def run_query(main, query: str, deadline_s: float = DEADLINE_S):
    """Run one query; returns (seconds, exit code or None, stdout, stderr, error).

    ``error`` is None, "deadline" or "traceback: <exception>".  The timed
    region covers ``main`` alone.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    code, error = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--query", query])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryDeadline:
        error = "deadline"
    except Exception as exc:  # a traceback escaping the CLI is a failed query
        error = f"traceback: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, previous)
    return elapsed, code, out.getvalue(), err.getvalue(), error


def answer_of(code, stdout: str):
    """The ``result`` object of a query report, or None for a usage error."""
    if code == 2:
        return None
    return json.loads(stdout)["result"]


def is_undecided(result) -> bool:
    return isinstance(result, dict) and str(result.get("error", "")).startswith("CoverUndecided")


KNOWN_UNDECIDED = re.compile(r"covers-within patched\(subtree\(T-in-U\); u:\[\]=>\{u:\[d(\d+)\]\}\) (\S+)")


def known_undecided(query: str) -> bool:
    """Whether ``query`` is in the one family allowed to answer CoverUndecided:
    ``covers-within patched(subtree(T-in-U); u:[]=>{u:[dK]}) a`` with K >= 2
    and a >= 2.  The root promises only u:[dK], which lies outside T-in-U, so
    every node of height >= 2 leaves the rule at height 1 and no safe point
    exists: the level is covered, which is the family's golden answer."""
    from treewedge.ordinal import parse_cnf

    m = KNOWN_UNDECIDED.fullmatch(query)
    return m is not None and int(m[1]) >= 2 and not parse_cnf(m[2]) < parse_cnf("2")


def check(query: str, code, stdout: str, error, golden: str) -> str:
    """'ok', 'undecided' or a failure reason.  Only a query of the known
    family may answer undecided; any other CoverUndecided is a failure."""
    if error is not None:
        return error
    if code not in (0, 1, 2):
        return f"exit code {code}"
    try:
        result = answer_of(code, stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if is_undecided(result):
        return "undecided" if known_undecided(query) else "undecided outside the known family"
    if digest(code, result) != golden:
        return "answer differs from golden"
    return "ok"
