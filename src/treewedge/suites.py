"""Named verification suites over seeded random fixtures and fixed grids.

Each suite function takes a RunConfig and returns a report dict with one
entry per property: {"name", "passed", "note"}.  Reports contain no
timestamps and all randomness flows from the config seed, so a (config,
seed) pair fully determines the bytes of the serialized report.

Positions below an anchor come from ``gen.grid_below``, a fixed
enumeration, wherever a property checks a function pointwise: the
coherence suite checks each grid point of each anchor once, and
tree-closure reads each drawn node at its anchor's grid and at the node's
own flip and tail positions.  Redrawn random positions would repeat the
same few again and again.  The other fixtures are seeded draws.

A property whose checks are counted by a setting (``trials``,
``budget_enum``, ``oracle_sample``) fails when that count is zero: it
checked nothing.  ``trials`` caps the grid points per anchor.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, fields
from itertools import islice
from . import __version__
from .coherent import CoherentSystem, UndecidedError
from .families import BitFamily, DigitFamily, InjFamily
from .forcing import (
    ExtensionError,
    cond_leq,
    delta_system,
    extend_above,
    extend_to_include,
    is_valid_condition,
    is_valid_spec,
    simulate_filter,
    spec_extend,
    union_compatible,
)
from .gen import grid_below, rand_below, rand_bit_node, rand_digit_node, rand_inj_node
from .ordinal import ONE, Ordinal, ZERO, add_ord, block_decompose, classify, from_nat, parse_cnf
from .sorgenfrey import (
    HalfOpenInterval,
    TaggedPoint,
    _point,
    dense_injection,
    find_between,
    isolating_box,
    neg,
    point_cmp,
    uncovered_left_endpoints,
)
from .trees import ExplicitTree
from .wedge import (
    BinaryInsideDigits,
    SafeSubtree,
    TruncatedSubtree,
    covers_within,
    find_safe_point,
    is_safe,
    lindelof_oracle,
)

DEFAULT_ANCHORS = ("w", "w*2", "w^2", "w^2+w", "w^3")
# coherence checks the first ladder points of each limit anchor's correction table
LADDER_STAGES = 8
# tree-closure reads each of its 100 nodes per anchor at the anchor's grid
# with this coefficient cap: coarser than the grid coherence checks once
NODE_GRID_COEFF = 3


@dataclass
class RunConfig:
    anchors: tuple = DEFAULT_ANCHORS
    nat_anchors: int = 64
    seed: int = 0
    trials: int = 1000
    budget_enum: int = 64
    budget_range: int = 10_000
    oracle_max: int = 100_000
    oracle_sample: int = 20_000

    def anchor_ordinals(self) -> list[Ordinal]:
        return [parse_cnf(a) for a in self.anchors]

    def as_dict(self) -> dict:
        # flat: every field is an int or a tuple of strings, so no deep copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Workspace:
    """One coherent system with the three families hanging off it."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.coh = CoherentSystem()
        self.injs = InjFamily(self.coh, budget=config.budget_range)
        self.bits = BitFamily(self.coh)
        self.digits = DigitFamily(self.bits)


def _prop(name: str, passed: bool, note: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "note": note}


def suite_coherence(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    coh = ws.coh
    rng = random.Random(config.seed)
    named = config.anchor_ordinals()
    anchors = sorted(set(named).union(map(from_nat, range(config.nat_anchors + 1))))
    props = []

    # one pass over the anchors in order: each grid point of an anchor is
    # checked once; the grid is listed again for each later anchor rather
    # than kept, and only its values stay until the next anchor
    points = named_points = bad = undecided = even = 0
    witnesses = agreements = pairs = 0
    exact = True
    for i, alpha in enumerate(anchors):
        own = []
        for xi in grid_below(alpha, config.trials):
            v = coh.eval_e(alpha, xi)
            own.append(v)
            even += v % 2 == 0
            # decoding shares no code with eval_e, so a value two points
            # share decodes to at most one of them
            try:
                if coh.position_of_value(alpha, v, config.budget_range) != xi:
                    bad += 1
            except UndecidedError:
                undecided += 1
        points += len(own)
        if not alpha.is_nat():
            named_points += len(own)
        for beta in anchors[i + 1 :]:
            pairs += 1
            delta = coh.delta_e(alpha, beta)
            witnesses += len(delta)
            for xi in delta:
                va, vb = coh.eval_e(alpha, xi), coh.eval_e(beta, xi)
                even += (va % 2 == 0) + (vb % 2 == 0)
                if va == vb:
                    exact = False
            for xi, v in zip(grid_below(alpha, config.trials), own):
                if xi not in delta:
                    agreements += 1
                    if v != coh.eval_e(beta, xi):
                        exact = False
    props.append(
        _prop(
            "injectivity-per-anchor",
            points > undecided and bad == 0,
            f"{points} (anchor, position) pairs over {len(anchors)} anchors, "
            f"{named_points} on named anchors, {undecided} undecided",
        )
    )
    values = points + 2 * witnesses  # each grid point's, and both sides of each witness
    props.append(_prop("values-odd", values > 0 and even == 0, f"{values} values"))
    props.append(
        _prop(
            "delta-witnesses-exact",
            witnesses + agreements > 0 and exact,
            f"{witnesses} witnesses and {agreements} grid agreements over {pairs} anchor pairs",
        )
    )

    # each composite ladder point p of a limit is re-keyed at its seam, so
    # e_lam(p) is the table's entry and differs from e_(p+1)(p), p's birth value
    table_ok = True
    entries = 0
    limits = [lam for lam in named if classify(lam) == "limit"]
    for lam in limits:
        for p, seam in coh.correction_table(lam, LADDER_STAGES).items():
            entries += 1
            if coh.eval_e(lam, p) != seam or p not in coh.delta_e(add_ord(p, ONE), lam):
                table_ok = False
    props.append(
        _prop(
            "correction-table-matches-eval",
            table_ok,
            f"{entries} entries over the first {LADDER_STAGES} ladder points of {len(limits)} limit anchors",
        )
    )

    fresh = CoherentSystem()
    agree = all(
        coh.eval_e(alpha, xi) == fresh.eval_e(alpha, xi)
        for alpha in named
        for xi in [rand_below(rng, alpha) for _ in range(20)]
    )
    props.append(_prop("determinism-fresh-system", agree))
    return props


def suite_delta_x(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    bits = ws.bits
    rng = random.Random(config.seed)
    stems = [ZERO] + [a for a in ws.config.anchor_ordinals() if classify(a) == "limit"]
    props = []
    contained = True
    rechecked = True
    outside_ok = True
    count = 0
    for i, alpha in enumerate(stems):
        for beta in stems[i:]:
            delta = bits.char_delta(alpha, beta)
            count += len(delta)
            if not delta <= bits.char_delta_candidates(alpha, beta):
                contained = False
            stem_a, stem_b = bits.char_stem(alpha), bits.char_stem(beta)
            for eta in delta:
                if bits.query(stem_a, eta) == bits.query(stem_b, eta):
                    rechecked = False
            for _ in range(50):
                if alpha.is_zero():
                    break
                eta = rand_below(rng, alpha)
                if eta not in delta and bits.query(stem_a, eta) != bits.query(stem_b, eta):
                    outside_ok = False
    props.append(_prop("delta-inside-candidate-set", contained, f"{count} members"))
    props.append(_prop("delta-members-disagree", rechecked))
    props.append(_prop("delta-complete-on-samples", outside_ok))
    return props


def suite_tree_closure(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    bits, digits = ws.bits, ws.digits
    rng = random.Random(config.seed)
    anchors = config.anchor_ordinals()
    props = []

    ok_bits = True
    for alpha in anchors:
        for _ in range(100):
            x = rand_bit_node(rng, bits, alpha)
            beta = rand_below(rng, alpha)
            y = bits.restrict(x, beta)
            if not bits.contains(y):
                ok_bits = False
            for _ in range(5):
                if beta.is_zero():
                    break
                xi = rand_below(rng, beta)
                if bits.query(y, xi) != bits.query(x, xi):
                    ok_bits = False
    props.append(_prop("bit-restrictions-member", ok_bits))

    ok_glue = True
    for alpha in anchors:
        for _ in range(100):
            beta = rand_below(rng, alpha)
            u = rand_digit_node(rng, digits, beta)
            t = rand_bit_node(rng, bits, alpha)
            glued = digits.glue(u, t)
            cut = rand_below(rng, alpha)
            if not digits.contains(digits.restrict(glued, cut)):
                ok_glue = False
    props.append(_prop("glue-restrictions-member", ok_glue))

    # each node is read at its anchor's grid and at every one of its own
    # flip and tail positions, where a fault in the embedding would show
    ok_embed = True
    nodes = coords = 0
    for alpha in anchors:
        grid = list(grid_below(alpha, config.trials, NODE_GRID_COEFF))
        on_grid = set(grid)
        gamma, m = block_decompose(alpha)
        tails = [add_ord(gamma, from_nat(i)) for i in range(m)]
        for _ in range(100):
            t = rand_bit_node(rng, bits, alpha)
            u = digits.embed_bits(t)
            nodes += 1
            if digits.height(u) != bits.height(t):
                ok_embed = False
            at = grid + [xi for xi in {*t.flips, *tails} if xi not in on_grid]
            coords += len(at)
            for xi in at:
                if digits.query(u, xi) != bits.query(t, xi):
                    ok_embed = False
    props.append(
        _prop(
            "embedding-pointwise",
            ok_embed,
            f"{nodes} nodes at {coords} coordinates: each anchor's grid and every flip and tail position",
        )
    )

    ok_split = True
    for alpha in anchors:
        x = rand_bit_node(rng, bits, alpha)
        kids = list(bits.successors(x))
        if len(kids) != 2:
            ok_split = False
        u = rand_digit_node(rng, digits, alpha)
        stream = digits.successors(u)
        seen = [next(stream) for _ in range(config.budget_enum)]
        if not seen or len(set(seen)) != config.budget_enum:
            ok_split = False
    props.append(_prop("splitting-degrees", ok_split))

    injs = ws.injs
    ok_inj = True
    undecided = 0
    for alpha in anchors:
        for _ in range(20):
            x = rand_inj_node(rng, injs, alpha)
            beta = rand_below(rng, alpha)
            xis = [] if beta.is_zero() else [rand_below(rng, beta) for _ in range(5)]
            try:
                y = injs.restrict(x, beta)
                if not injs.contains(y) or any(injs.query(y, xi) != injs.query(x, xi) for xi in xis):
                    ok_inj = False
                kids = list(islice(injs.successors(x), 4))
                if len(set(kids)) != 4 or any(injs.restrict(k, alpha) != x for k in kids):
                    ok_inj = False
            except UndecidedError:  # a range test ran past --budget-range
                undecided += 1
    props.append(_prop("inj-restrictions-member", ok_inj, f"20 nodes per anchor, {undecided} undecided"))
    return props


def suite_wedge_safe(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    digits = ws.digits
    tinu = BinaryInsideDigits(digits)
    limits = [a for a in config.anchor_ordinals() if classify(a) == "limit"]
    props = []

    found = True
    uncovered = True
    for alpha in limits:
        w = find_safe_point(tinu, alpha)
        if w is None or not is_safe(tinu, w) or digits.height(w) != alpha:
            found = False
        if covers_within(tinu, alpha):
            uncovered = False
    props.append(_prop("safe-points-at-limits", found, f"{len(limits)} levels"))
    props.append(_prop("full-subtree-never-covered", uncovered))

    cut = parse_cnf("w")
    trunc = TruncatedSubtree(BinaryInsideDigits(digits), cut)
    above = [a for a in limits if cut < a]
    covered = all(covers_within(trunc, a) for a in above)
    covered = covered and covers_within(trunc, add_ord(cut, from_nat(1)))
    props.append(_prop("truncated-covered-above-cut", covered, f"{len(above) + 1} levels"))

    still = not covers_within(trunc, from_nat(3)) and not covers_within(trunc, cut)
    props.append(_prop("truncated-safe-below-cut", still))

    S = SafeSubtree(tinu)
    rng = random.Random(config.seed)
    closure = True
    filter_ok = True
    for _ in range(100):
        alpha = rng.choice(limits)
        u = rand_digit_node(rng, digits, alpha)
        if S.contains(u):
            if not S.contains(digits.restrict(u, rand_below(rng, alpha))):
                closure = False
            kids = S.values(u)
            if sorted(k.trail[-1] for k in kids) != [0, 1]:
                filter_ok = False
    props.append(_prop("safe-set-downward-closed", closure))
    props.append(_prop("safe-set-filter-is-rule", filter_ok))
    return props


def suite_wedge_oracle(config: RunConfig) -> list[dict]:
    rng = random.Random(config.seed)
    props = []
    jobs = [("binary", 2, h) for h in (2, 3, 4)] + [("ternary", 3, h) for h in (2, 3, 4)]
    for label, arity, height in jobs:
        tree = ExplicitTree.complete(arity, height)
        report = lindelof_oracle(
            tree,
            max_covers=config.oracle_max,
            sample=config.oracle_sample,
            rng=rng,
        )
        if report["sampled"]:
            note = (
                f"space {report['space']} exceeds the guard {config.oracle_max}; "
                f"{report['covers_checked']} seeded samples"
            )
        else:
            note = f"exhaustive over {report['covers_checked']} rules"
        passed = report["covers_checked"] > 0 and not report["counterexamples"]
        props.append(_prop(f"oracle-{label}-h{height}", passed, note))
    return props


def _rand_point(rng) -> TaggedPoint:
    """Up to three digits then a positive one, on a random side: drawn
    through ``_randbelow`` as ``gen`` draws, trimmed by construction."""
    below = rng._randbelow
    seq = (*[below(5) for _ in range(below(4))], 1 + below(4))
    return _point("LR"[below(2)], seq)


def suite_sorgenfrey(config: RunConfig) -> list[dict]:
    rng = random.Random(config.seed)
    props = []

    iso_ok = True
    for _ in range(100):
        x = _rand_point(rng)
        u, v, box = isolating_box(x)
        if not box.contains((x, neg(x))):
            iso_ok = False
        for _ in range(200):
            y = _rand_point(rng)
            if point_cmp(y, x) != 0 and box.contains((y, neg(y))):
                iso_ok = False
    props.append(_prop("isolation-boxes", iso_ok, "100 boxes x 200 probes"))

    between_ok = True
    for _ in range(10_000):
        a, b = _rand_point(rng), _rand_point(rng)
        if point_cmp(a, b) == 0:
            continue
        if b < a:
            a, b = b, a
        z = find_between(a, b)
        if not (a < z and z < b):
            between_ok = False
    props.append(_prop("between-strict", between_ok, "10^4 pairs"))

    inj_ok = True
    made = 0
    while made < 1000:
        pts = sorted({_rand_point(rng) for _ in range(6)})
        if len(pts) < 2:
            continue
        made += 1
        bounds = {}
        usable = pts[:-1]
        for x, nxt in zip(pts, pts[1:]):
            bounds[x] = find_between(x, nxt)
        try:
            out = dense_injection(usable, bounds)
        except Exception:
            inj_ok = False
            continue
        ordered = sorted(usable)
        for a, b in zip(ordered, ordered[1:]):
            if not out[a] < out[b]:
                inj_ok = False
    props.append(_prop("injection-monotone", inj_ok, "10^3 fixtures"))

    scan_ok = True
    for _ in range(1000):
        pts = sorted({_rand_point(rng) for _ in range(8)})
        if len(pts) < 4:
            continue
        ivs = []
        for _ in range(4):
            i = rng.randrange(len(pts) - 1)
            j = rng.randrange(i + 1, len(pts))
            ivs.append(HalfOpenInterval(pts[i], pts[j]))
        got = uncovered_left_endpoints(ivs)
        expect = {
            iv.lo
            for iv in ivs
            if all(not (o.lo < iv.lo and iv.lo < o.hi) for o in ivs)
        }
        if got != expect:
            scan_ok = False
    props.append(_prop("endpoint-scan-matches-bruteforce", scan_ok, "10^3 families"))
    return props


def _random_explicit_condition(rng, family):
    p = {}
    nodes = [x for x in family.parent if family.children[x]]
    for _ in range(rng.randrange(0, 4)):
        try:
            p = extend_to_include(family, p, rng.choice(nodes))
        except ExtensionError:
            continue
    return p


def _random_symbolic_condition(rng, digits, limits):
    p = {}
    for _ in range(rng.randrange(0, 3)):
        alpha = rand_below(rng, rng.choice(limits))
        try:
            p = extend_to_include(digits, p, rand_digit_node(rng, digits, alpha))
        except ExtensionError:
            continue
    return p


def suite_forcing_ccc(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    digits = ws.digits
    rng = random.Random(config.seed)
    fam = ExplicitTree.complete(2, 5)
    props = []

    union_ok = True
    built = 0
    while built < config.trials:
        # a shared root part plus off-root keys in incomparable regions
        root_part = {}
        if rng.random() < 0.5:
            root_part = {"r": frozenset({"0", "1"})}
        p, q = dict(root_part), dict(root_part)
        region_p, region_q = ("00", "10") if rng.random() < 0.5 else ("01", "11")
        try:
            for _ in range(rng.randrange(1, 3)):
                p = extend_to_include(fam, p, region_p + "0" * rng.randrange(0, 3))
            for _ in range(rng.randrange(1, 3)):
                q = extend_to_include(fam, q, region_q + "0" * rng.randrange(0, 3))
        except ExtensionError:
            continue
        if set(p) & set(q) != set(root_part):
            continue
        built += 1
        r = union_compatible(fam, p, q)
        if r is None or not is_valid_condition(fam, r):
            union_ok = False
        elif not (cond_leq(fam, r, p) and cond_leq(fam, r, q)):
            union_ok = False
    props.append(_prop("union-of-delta-system-pairs", built > 0 and union_ok, f"{built} fixtures"))

    ds_ok = True
    for _ in range(200):
        core = frozenset(rng.sample(range(10), rng.randrange(0, 3)))
        fams = []
        for i in range(6):
            extra = {10 + 3 * i, 11 + 3 * i}
            fams.append(core | frozenset(rng.sample(sorted(extra), rng.randrange(1, 3))))
        got = delta_system(fams, 4)
        if got is None:
            ds_ok = False
        else:
            root, sub = got
            if root != core or len(sub) != 4:
                ds_ok = False
    props.append(_prop("delta-system-finder", ds_ok, "200 planted families"))

    sym_ok = True
    built = 0
    while built < 100:
        # symbolic version: off-root keys diverge at the first digit
        d1, d2 = rng.sample(range(4), 2)
        u1 = digits.node([("d", d1), ("d", rng.randrange(2))])
        u2 = digits.node([("d", d2), ("d", rng.randrange(2))])
        p = extend_to_include(digits, {}, u1)
        q = extend_to_include(digits, {}, u2)
        built += 1
        r = union_compatible(digits, p, q)
        if r is None or not is_valid_condition(digits, r):
            sym_ok = False
    props.append(_prop("union-symbolic-pairs", sym_ok, "100 fixtures"))
    return props


def suite_forcing_density(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    digits = ws.digits
    rng = random.Random(config.seed)
    fam = ExplicitTree.complete(2, 5)
    limits = [a for a in config.anchor_ordinals() if classify(a) == "limit"]
    props = []

    ext_ok = True
    done = 0
    while done < config.trials:
        symbolic = rng.random() < 0.3
        family = digits if symbolic else fam
        p = (
            _random_symbolic_condition(rng, digits, limits)
            if symbolic
            else _random_explicit_condition(rng, fam)
        )
        mode = rng.randrange(3)
        try:
            if mode == 0 and p:
                # include a restriction of an existing key
                x = rng.choice(sorted(p, key=str))
                beta = rand_below(rng, family.height(x)) if not family.height(x).is_zero() else ZERO
                r = extend_to_include(family, p, family.restrict(x, beta))
            elif mode == 1 and p:
                # include a promised successor
                succ = sorted((z for s in p.values() for z in s), key=str)
                r = extend_to_include(family, p, rng.choice(succ))
            else:
                alpha = (
                    rand_below(rng, rng.choice(limits))
                    if symbolic
                    else from_nat(rng.randrange(0, 4))
                )
                r = extend_above(family, p, alpha)
                if not any(not family.height(x) < alpha for x in r):
                    ext_ok = False
        except ExtensionError:
            continue
        done += 1
        if not is_valid_condition(family, r) or not cond_leq(family, r, p):
            ext_ok = False
    props.append(_prop("extensions-valid", done > 0 and ext_ok, f"{done} fixtures"))

    sim_ok = True
    for _ in range(100):
        symbolic = rng.random() < 0.4
        family = digits if symbolic else fam
        targets = []
        for _ in range(rng.randrange(1, 4)):
            if symbolic:
                if rng.random() < 0.5:
                    alpha = rand_below(rng, rng.choice(limits))
                    targets.append(("include", rand_digit_node(rng, digits, alpha)))
                else:
                    targets.append(("reach", rng.choice(limits)))
            else:
                if rng.random() < 0.5:
                    targets.append(("include", rng.choice(["0", "1", "00", "010"])))
                else:
                    targets.append(("reach", from_nat(rng.randrange(0, 4))))
        try:
            _, report = simulate_filter(family, targets)
        except ExtensionError:
            continue
        checks = report["checks"]
        if not (checks["valid"] and checks["window_downward_closed"] and checks["fragment_successors_promised"]):
            sim_ok = False
    props.append(_prop("simulation-fragments", sim_ok, "100 scripts"))

    spec_ok = True
    trees = [ExplicitTree.complete(2, h) for h in (2, 3, 4, 5, 6)]
    trees.append(ExplicitTree.complete(3, 4))
    for size in (10, 40, 100):
        tree = _random_tree(rng, size)
        trees.append(tree)
    for tree in trees:
        order = list(tree.parent)
        rng.shuffle(order)
        q = {}
        for x in order:
            q = spec_extend(tree, q, x)
        if len(q) != len(order) or not is_valid_spec(tree, q):
            spec_ok = False
    props.append(_prop("specializer-totalizes", spec_ok, f"{len(trees)} trees"))
    return props


def _random_tree(rng, size):
    tree = ExplicitTree().add("r", None)
    names = ["r"]
    for i in range(size - 1):
        parent = rng.choice(names)
        node = f"n{i}"
        tree.add(node, parent)
        names.append(node)
    return tree


SUITES = {
    "coherence": suite_coherence,
    "delta-x": suite_delta_x,
    "tree-closure": suite_tree_closure,
    "wedge-safe": suite_wedge_safe,
    "wedge-oracle": suite_wedge_oracle,
    "sorgenfrey": suite_sorgenfrey,
    "forcing-ccc": suite_forcing_ccc,
    "forcing-density": suite_forcing_density,
}


def run_suite(name: str, config: RunConfig) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    props = SUITES[name](config)
    return {
        "version": __version__,
        "suite": name,
        "config": config.as_dict(),
        "properties": props,
        "pass": all(p["passed"] for p in props),
    }
