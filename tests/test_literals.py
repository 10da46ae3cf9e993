import random

import pytest

from treewedge.coherent import CoherentSystem
from treewedge.families import BitFamily, DigitFamily, InjFamily
from treewedge.gen import rand_below, rand_bit_node, rand_digit_node, rand_inj_node
from treewedge.literals import format_cover, format_node, parse_cover, parse_node
from treewedge.ordinal import OMEGA, from_nat, parse_cnf
from treewedge.trees import ExplicitTree
from treewedge.wedge import BinaryInsideDigits, PatchedCover, SubtreeCover, TruncatedSubtree

ANCHORS = [parse_cnf(s) for s in ("w", "w*2", "w^2", "w^2+w", "w^3")]


@pytest.fixture(scope="module")
def ws():
    coh = CoherentSystem()
    bits = BitFamily(coh)
    return InjFamily(coh), bits, DigitFamily(bits)


def test_te_round_trip(ws):
    injs, bits, digits = ws
    rng = random.Random(70)
    for _ in range(50):
        x = rand_inj_node(rng, injs, rng.choice(ANCHORS))
        assert parse_node(injs, format_node(injs, x)) == x


def test_t_round_trip(ws):
    injs, bits, digits = ws
    rng = random.Random(71)
    for _ in range(50):
        alpha = rand_below(rng, parse_cnf("w^3"))
        x = rand_bit_node(rng, bits, alpha)
        assert parse_node(bits, format_node(bits, x)) == x


def test_u_round_trip(ws):
    injs, bits, digits = ws
    rng = random.Random(72)
    for _ in range(50):
        alpha = rng.choice(ANCHORS + [from_nat(3), parse_cnf("w^2+3")])
        x = rand_digit_node(rng, digits, alpha)
        assert parse_node(digits, format_node(digits, x)) == x


def test_u_component_example(ws):
    injs, bits, digits = ws
    stem = bits.char_stem(OMEGA)
    lit = f"u:[d{bits.query(stem, from_nat(0))},tail({format_node(bits, stem)})@w,d0]"
    node = parse_node(digits, lit)
    assert node.base == stem
    assert node.patch == ()  # the leading digit agreed with the stem
    assert node.trail == (0,)


def test_cover_round_trip(ws):
    injs, bits, digits = ws
    tinu = SubtreeCover(BinaryInsideDigits(digits))
    assert format_cover(tinu) == "subtree(T-in-U)"
    again = parse_cover("subtree(T-in-U)", digits)
    assert format_cover(again) == "subtree(T-in-U)"

    trunc = parse_cover("subtree(T-in-U<w*2)", digits)
    assert isinstance(trunc.handle, TruncatedSubtree)
    assert trunc.handle.h == parse_cnf("w*2")
    assert format_cover(trunc) == "subtree(T-in-U<w*2)"

    u = digits.node([("d", 0)])
    child = digits.node([("d", 0), ("d", 1)])
    patched = PatchedCover(tinu, {u: (child,)})
    text = format_cover(patched)
    again = parse_cover(text, digits)
    assert format_cover(again) == text
    assert again.table == patched.table

    # a second layer flattens into one table, its rows winning
    other = digits.node([("d", 0), ("d", 0)])
    root_row = (digits.node([("d", 0)]),)
    two = patched.patched({u: (other,), digits.root(): root_row})
    assert two.table == {u: (other,), digits.root(): root_row}
    text = format_cover(two)
    assert text.count("patched(") == 1
    assert format_cover(parse_cover(text, digits)) == text
    nested = f"patched({format_cover(patched)}; u:[]=>{{u:[d0]}}, u:[d0]=>{{u:[d0,d0]}})"
    assert parse_cover(nested, digits).table == two.table


def test_table_cover_literal(tmp_path, ws):
    injs, bits, digits = ws
    tree = ExplicitTree.complete(2, 3)
    path = tmp_path / "tree.txt"
    path.write_text(tree.to_text())
    f = parse_cover(f"table({path}; r=>{{0}})", digits, lambda p: ExplicitTree.from_text(open(p).read()))
    assert f.values("r") == ["0"]
    assert f.values("0") == []


@pytest.mark.parametrize("rows", ["r=>{zz}", "zz=>{}", "zz=>{0}"])
def test_table_rows_name_known_nodes(tmp_path, ws, rows):
    injs, bits, digits = ws
    path = tmp_path / "tree.txt"
    path.write_text(ExplicitTree.complete(2, 3).to_text())
    with pytest.raises(ValueError, match="unknown explicit node 'zz'"):
        parse_cover(f"table({path}; {rows})", digits, lambda p: ExplicitTree.from_text(open(p).read()))
