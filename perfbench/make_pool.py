"""Regenerate ``pool.json``: the cheap query pool of the `queries` workload.

    python3 perfbench/make_pool.py           # new goldens for the same queries
    python3 perfbench/make_pool.py --draw    # draw a new pool of queries

Both run from the repository root.  Each pool query is stored with a digest
of (exit code, result) as its golden answer.  The default mode keeps the
query strings of ``pool.json`` and recomputes only their goldens, so results
from before and after a deliberate change of query output stay comparable.

``--draw`` draws candidates from the fixed pool seed.  Every draw picks one
of the nine query commands with equal weight, or a malformed query.  The
choices within a command cover its input forms; none of the weights
describes measured usage.  The draw depends only on the seed and the
program's answers, never on timing.  The deep queries are made per seed in
``queries.py``.

Undecided answers are kept only for the known family of
``queries.known_undecided``, with golden answer ``{"covered": true}``, so a
change that decides them must decide them right.  ``--draw`` drops any
other undecided candidate, and any candidate that exits outside 0/1/2 or
raises; the counts are stored in ``pool.json``.  The default mode refuses
such answers.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from treewedge.cli import main as cli_main  # noqa: E402
from treewedge.gen import rand_below, rand_digit_node  # noqa: E402
from treewedge.literals import format_node  # noqa: E402
from treewedge.ordinal import parse_cnf, to_cnf  # noqa: E402
from treewedge.sorgenfrey import TaggedPoint, format_point, trim  # noqa: E402
from treewedge.suites import RunConfig, Workspace  # noqa: E402
from treewedge.trees import ExplicitTree  # noqa: E402

from queries import POOL_PATH, answer_of, digest, is_undecided, known_undecided, run_query  # noqa: E402

POOL_SEED = 0
POOL_SIZE = 1500
TREE_FILE = "perfbench/tree3x4.txt"

ANCHORS = [
    "w", "w+1", "w+7", "w*2", "w*2+5", "w*3", "w*5+2", "w^2", "w^2+3", "w^2+w",
    "w^2*2", "w^2*2+w*3", "w^3", "w^3+w^2*2+w", "w^4", "w^(w)", "w^(w)+w^2", "w^(w+1)",
]
LIMITS = ["w", "w*2", "w*3", "w^2", "w^2+w", "w^2*2", "w^3", "w^(w)"]
STEMS = ["0", "w", "w*2", "w*3", "w^2", "w^2+w", "w^2*2", "w^3"]
LEVELS = ["1", "2", "3", "5", "w", "w+1", "w+3", "w*2", "w^2", "w^2+w", "w^3"]
TRUNC = ["3", "w", "w+2", "w*2", "w^2"]


def ordered_pair(rng, names):
    a, b = sorted((parse_cnf(rng.choice(names)), parse_cnf(rng.choice(names))))
    return to_cnf(a), to_cnf(b)


def digit_node(rng, digits, level_names=LIMITS):
    top = parse_cnf(rng.choice(level_names))
    alpha = rand_below(rng, top) if rng.random() < 0.7 else top
    return format_node(digits, rand_digit_node(rng, digits, alpha))


def symbolic_cover(rng):
    kind = rng.random()
    if kind < 0.3:
        return "subtree(T-in-U)"
    if kind < 0.55:
        return f"subtree(T-in-U<{rng.choice(TRUNC)})"
    if kind < 0.8:
        return f"patched(subtree(T-in-U); u:[]=>{{u:[d{rng.randrange(0, 2)}]}})"
    a, b = rng.randrange(0, 2), rng.randrange(0, 5)
    return f"patched(subtree(T-in-U); u:[d{a}]=>{{u:[d{a},d{b}]}})"


def table_cover(rng, tree):
    rows = []
    internal = [x for x in tree.parent if tree.children[x]]
    for x in rng.sample(internal, rng.randrange(3, 9)):
        kids = rng.sample(tree.children[x], rng.randrange(0, 3))
        rows.append(f"{x}=>{{{','.join(sorted(kids))}}}")
    return f"table({TREE_FILE}; {', '.join(rows)})"


def target(rng, digits):
    if rng.random() < 0.6:
        return f"include({digit_node(rng, digits, ['3', 'w', 'w*2', 'w^2'])})"
    return f"reach({rng.choice(['2', 'w', 'w+1', 'w*2', 'w^2'])})"


def point(rng):
    seq = trim([rng.randrange(0, 5) for _ in range(rng.randrange(0, 5))] + [rng.randrange(1, 5)])
    return format_point(TaggedPoint(rng.choice("LR"), seq))


def eval_e(rng, ws, tree):
    alpha = parse_cnf(rng.choice(ANCHORS)) if rng.random() < 0.8 else parse_cnf(str(rng.randrange(1, 300)))
    return f"eval-e {to_cnf(alpha)} {to_cnf(rand_below(rng, alpha))}"


def delta_e(rng, ws, tree):
    return "delta-e {} {}".format(*ordered_pair(rng, ANCHORS[:13]))


def delta_x(rng, ws, tree):
    return "delta-x {} {}".format(*ordered_pair(rng, STEMS))


def is_safe(rng, ws, tree):
    if rng.random() < 0.25:
        depth = rng.randrange(0, 4)
        return f"is-safe {table_cover(rng, tree)} {rng.choice(tree.level_nodes(depth))}"
    return f"is-safe {symbolic_cover(rng)} {digit_node(rng, ws.digits)}"


def find_safe(rng, ws, tree):
    if rng.random() < 0.25:
        return f"find-safe {table_cover(rng, tree)} {rng.randrange(0, 4)}"
    return f"find-safe {symbolic_cover(rng)} {rng.choice(LEVELS)}"


def covers_within(rng, ws, tree):
    s = rng.random()
    if s < 0.08:
        # the known undecided family; true answer: covered
        return f"covers-within patched(subtree(T-in-U); u:[]=>{{u:[d{rng.randrange(2, 9)}]}}) {rng.choice(LEVELS[1:])}"
    if s < 0.3:
        return f"covers-within {table_cover(rng, tree)} {rng.randrange(1, 4)}"
    return f"covers-within {symbolic_cover(rng)} {rng.choice(LEVELS)}"


def isolate(rng, ws, tree):
    return f"isolate {point(rng)}"


def simulate(rng, ws, tree):
    return "simulate " + " ".join(target(rng, ws.digits) for _ in range(rng.randrange(1, 4)))


def extend(rng, ws, tree):
    return "extend " + " ".join(target(rng, ws.digits) for _ in range(rng.randrange(1, 3)))


def malformed(rng, ws, tree):
    return rng.choice([
        "eval-e w+w 3",
        "eval-e w w",
        "delta-e w^2 w",
        "eval-e w 3 4",
        "frobnicate 1 2",
        "is-safe subtree(T-in-X) u:[]",
        "isolate Q:1",
        "delta-x w+1 w^2",
    ])


COMMANDS = [eval_e, delta_e, delta_x, is_safe, find_safe, covers_within, isolate, simulate, extend, malformed]


def golden(query: str):
    """(golden digest, None), or (None, reason) when the query may not enter the pool."""
    _, code, out, _, error = run_query(cli_main, query)
    if error is not None or code not in (0, 1, 2):
        return None, "failed"
    result = answer_of(code, out)
    if is_undecided(result):
        if not known_undecided(query):
            return None, "undecided"
        code, result = 0, {"covered": True}
    return digest(code, result), None


def draw(dropped) -> list[str]:
    tree = ExplicitTree.complete(3, 4)
    (ROOT / TREE_FILE).write_text(tree.to_text() + "\n")
    ws = Workspace(RunConfig())
    rng = random.Random(POOL_SEED)
    seen, kept = set(), []
    while len(kept) < POOL_SIZE:
        q = rng.choice(COMMANDS)(rng, ws, tree)
        if q in seen:
            continue
        seen.add(q)
        _, reason = golden(q)
        if reason:
            dropped[reason] += 1
        else:
            kept.append(q)
    return kept


def main(argv) -> int:
    if argv not in ([], ["--draw"]):
        print(__doc__, file=sys.stderr)
        return 2
    if argv:
        dropped = {"undecided": 0, "failed": 0}
        pool = draw(dropped)
    else:
        data = json.loads(POOL_PATH.read_text())
        dropped = data["dropped"]
        pool = [q for q, _ in data["queries"]]
    rows = []
    for q in pool:
        gold, reason = golden(q)
        if reason:
            print(f"error: pool query {q!r} is now {reason}", file=sys.stderr)
            return 1
        rows.append([q, gold])
    body = ",\n".join(json.dumps(row) for row in rows)
    POOL_PATH.write_text(
        f'{{"pool_seed": {POOL_SEED}, "dropped": {json.dumps(dropped)}, "queries": [\n{body}\n]}}\n'
    )
    print(f"wrote {len(rows)} queries to {POOL_PATH.name}; dropped when drawn: {dropped}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
