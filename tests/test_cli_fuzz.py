"""Seeded fuzz over query strings: every query ends with exit code 0, 1 or 2.

Queries are built from the nine commands and from literal fragments, valid
and malformed.  Naturals stay below 10^4 because some answers grow with the
input: ``find-safe subtree(T-in-U) 100000`` prints a node of 100,000 digits
(about 300 KB), which takes time to build and print but is no defect.  The
finite tail of an ordinal like w+n, and the coefficient of the eval-e and
delta-e anchors w*n and w^2*n, go up to 9,999.
"""

import contextlib
import io
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treewedge.cli import main


class Deadline(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    def on_alarm(signum, frame):
        raise Deadline(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


naturals = st.integers(0, 9_999).map(str)
tails = st.integers(0, 9_999)
ordinals = st.one_of(
    naturals,
    st.sampled_from(["w", "w*2", "w^2", "w^2+w", "w^3", "w^(w)", "w*3+w", "w+w", "w^", "", "x", "(w", "w*0"]),
    st.tuples(st.sampled_from(["w", "w*2", "w^2", "w^(w)"]), tails).map(lambda p: f"{p[0]}+{p[1]}"),
)
# anchors of eval-e and delta-e also take long ladders, whose first-step
# descents are as long as their coefficient
anchors = st.one_of(
    ordinals,
    st.tuples(st.sampled_from(["w", "w^2"]), st.integers(1, 9_999)).map(lambda p: f"{p[0]}*{p[1]}"),
)
nodes = st.one_of(
    st.lists(st.integers(0, 9_999), max_size=4).map(lambda ds: "u:[" + ",".join(f"d{d}" for d in ds) + "]"),
    st.sampled_from(
        [
            "u:[tail(t:w:{}:[])@w,d0]",
            "u:[tail(t:w:{3}:[])@w,patch(2=5)]",
            "u:[patch(3=1)]",
            "u:[tail(t:w:{}:[])@w*2]",
            "t:w+2:{5}:[1,0]",
            "te:w:{3=2}",
            "u:[d0",
            "u:[dx]",
            "r",
            "0",
        ]
    ),
)
covers = st.one_of(
    st.just("subtree(T-in-U)"),
    ordinals.map(lambda h: f"subtree(T-in-U<{h})"),
    st.tuples(nodes, st.lists(nodes, max_size=2)).map(
        lambda p: f"patched(subtree(T-in-U); {p[0]}=>{{{','.join(p[1])}}})"
    ),
    st.tuples(nodes, nodes, nodes).map(
        lambda p: f"patched(patched(subtree(T-in-U); {p[0]}=>{{{p[1]}}}); {p[1]}=>{{{p[2]}}})"
    ),
    st.sampled_from(
        [
            "table(/nonexistent; r=>{0})",
            "patched(table(/nonexistent; r=>{0}); r=>{0})",
            "subtree(T-in-V)",
            "patched(subtree(T-in-U); u:[]=>u:[d1])",
        ]
    ),
)
points = st.one_of(
    st.tuples(st.sampled_from("LR"), st.lists(st.integers(0, 9_999), min_size=1, max_size=4)).map(
        lambda p: f"{p[0]}:" + ".".join(map(str, p[1]))
    ),
    st.sampled_from(["L:", "X:1", "L:1.", "R:0"]),
)
targets = st.one_of(
    nodes.map(lambda u: f"include({u})"),
    ordinals.map(lambda a: f"reach({a})"),
    st.sampled_from(["bogus(1)", "include(u:[d0)", "reach("]),
)
fragments = st.one_of(ordinals, nodes, covers, points, targets, st.text(alphabet="()[]{}:;,=>w+*^ud0123 ", max_size=8))
ARGUMENTS = {
    "eval-e": st.tuples(anchors, anchors),
    "delta-e": st.tuples(anchors, anchors),
    "delta-x": st.tuples(ordinals, ordinals),
    "is-safe": st.tuples(covers, nodes),
    "find-safe": st.tuples(covers, ordinals),
    "covers-within": st.tuples(covers, ordinals),
    "isolate": st.tuples(points),
    "simulate": st.lists(targets, max_size=3),
    "extend": st.lists(targets, max_size=3),
}
# three in four queries have the right shape for their command, so most
# reach the library rather than stopping at the arity check
right_shape = st.sampled_from(sorted(ARGUMENTS)).flatmap(
    lambda cmd: ARGUMENTS[cmd].map(lambda args: " ".join([cmd, *args]))
)
any_shape = st.tuples(st.sampled_from([*ARGUMENTS, "frobnicate"]), st.lists(fragments, max_size=3)).map(
    lambda p: " ".join([p[0], *p[1]])
)
queries = st.one_of(right_shape, right_shape, right_shape, any_shape)


@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(query=queries)
def test_every_query_exits_cleanly(query):
    out = io.StringIO()
    with deadline(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(["--query", query])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("query", ["eval-e 99999999999999999999999 5", "delta-e w+9999 w^2"])
def test_huge_successor_anchor_answers_in_time(query, capsys):
    with deadline(2):
        assert main(["--query", query]) == 0
