"""The library's records are NamedTuples: each hashes as the tuple of its
fields, keeps the ``Name(field=value, ...)`` repr that reports and sort keys
read, and refuses assignment.  Importing the front end loads neither
``dataclasses`` (which pulls in ``inspect``) nor ``fractions`` (which pulls
in ``decimal``); the specializer imports ``fractions`` when first called."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from treewedge.families import BitNode, DigitNode, InjNode
from treewedge.ordinal import OMEGA, ONE, from_nat, parse_cnf
from treewedge.sorgenfrey import Box, HalfOpenInterval, TaggedPoint
from treewedge.suites import RunConfig

SRC = Path(__file__).resolve().parents[1] / "src"

L1, L2 = TaggedPoint("L", (1,)), TaggedPoint("L", (2,))
R1, R2 = TaggedPoint("R", (1,)), TaggedPoint("R", (2,))

# each record beside its repr, in the form reports and sort keys have always read
RECORDS = [
    (InjNode(OMEGA, ((from_nat(3), 2),)), "InjNode(height=Ordinal[w], over=((Ordinal[3], 2),))"),
    (
        BitNode(parse_cnf("w+2"), (from_nat(5),), (1, 0)),
        "BitNode(height=Ordinal[w+2], flips=(Ordinal[5],), tail=(1, 0))",
    ),
    (
        DigitNode(BitNode(OMEGA, (ONE,), ()), ((from_nat(2), 5),), (0, 7)),
        "DigitNode(base=BitNode(height=Ordinal[w], flips=(Ordinal[1],), tail=()), "
        "patch=((Ordinal[2], 5),), trail=(0, 7))",
    ),
    (DigitNode(None, (), (3, 1)), "DigitNode(base=None, patch=(), trail=(3, 1))"),
    (
        HalfOpenInterval(L1, L2),
        "HalfOpenInterval(lo=TaggedPoint(side='L', seq=(1,)), hi=TaggedPoint(side='L', seq=(2,)))",
    ),
    (
        Box(HalfOpenInterval(L1, L2), HalfOpenInterval(R2, R1)),
        "Box(first=HalfOpenInterval(lo=TaggedPoint(side='L', seq=(1,)), hi=TaggedPoint(side='L', seq=(2,))), "
        "second=HalfOpenInterval(lo=TaggedPoint(side='R', seq=(2,)), hi=TaggedPoint(side='R', seq=(1,))))",
    ),
    (
        RunConfig(anchors=("w",), seed=3),
        "RunConfig(anchors=('w',), nat_anchors=64, seed=3, trials=1000, budget_enum=64, "
        "oracle_max=100000, oracle_sample=20000)",
    ),
]
IDS = [type(x).__name__ for x, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_hashes_as_its_field_tuple(record, text):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_repr_keeps_its_form(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_refuses_assignment(record, text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("lo, hi", [(L1, L1), (L2, L1), (R1, L1), (R1, R2)])
def test_interval_needs_lo_below_hi(lo, hi):
    with pytest.raises(ValueError):
        HalfOpenInterval(lo, hi)


# a fresh interpreter: the front end loads neither module, and the specializer,
# which imports fractions on first use, still labels with Fractions
STARTUP = """
import sys
import treewedge.cli, treewedge.suites
loaded = [m for m in ("dataclasses", "fractions", "inspect") if m in sys.modules]
assert not loaded, loaded
from treewedge.forcing import spec_extend
from treewedge.trees import ExplicitTree
tree = ExplicitTree.complete(2, 2)
labels = spec_extend(tree, spec_extend(tree, {}, "r"), "1")
from fractions import Fraction
assert all(type(v) is Fraction for v in labels.values()), labels
"""


def test_startup_imports_neither_dataclasses_nor_fractions():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
