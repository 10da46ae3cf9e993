"""Named verification suites over seeded random fixtures and fixed grids.

Each suite function takes a RunConfig and returns a report dict with one
entry per property: {"name", "passed", "note"}.  Reports contain no
timestamps and all randomness flows from the config seed, so a (config,
seed) pair fully determines the bytes of the serialized report.

Positions below an anchor come from ``gen.grid_below``, a fixed
enumeration, wherever a property checks a function pointwise: the
coherence suite checks each grid point of each anchor once, delta-x each
grid point of each stem off a difference set, and tree-closure reads each
drawn node at its anchor's grid and at the node's own flip and tail
positions.  Redrawn random positions would repeat the same few again and
again.  The Sorgenfrey suite lists its whole point space, and the
forcing-ccc pairs are built so that they always extend.  The other
fixtures are seeded draws.

Every property keeps one ``Tally`` of the checks it made, the checks that
failed and the fixtures it passed over, by reason (an ``ExtensionError``,
a key a drawn condition could not include, no limit anchor); then
forcing-density checks each refusal on its explicit
tree against a brute-force search.  A property passes iff it made
at least one check and none failed, so a property that checked nothing
fails, whether a setting (``trials``, ``budget_enum``, ``oracle_sample``)
or the draws left it nothing.  Its note starts with those counts.
``trials`` caps the grid points per anchor.
"""

from __future__ import annotations

import random

from itertools import combinations, islice, product
from typing import NamedTuple

from . import __version__
from .coherent import CoherentSystem
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
from .oracle import lindelof_oracle
from .ordinal import ONE, Ordinal, ZERO, add_ord, block_decompose, classify, from_nat, parse_cnf, pred
from .sorgenfrey import (
    HalfOpenInterval,
    TaggedPoint,
    _point,
    dense_injection,
    find_between,
    isolating_box,
    neg,
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
)

DEFAULT_ANCHORS = ("w", "w*2", "w^2", "w^2+w", "w^3")
# coherence checks the first ladder points of each limit anchor's correction table
LADDER_STAGES = 8
# tree-closure reads each of its 100 nodes per anchor at the anchor's grid
# with this coefficient cap: coarser than the grid coherence checks once
NODE_GRID_COEFF = 3


class RunConfig(NamedTuple):
    anchors: tuple = DEFAULT_ANCHORS
    nat_anchors: int = 64
    seed: int = 0
    trials: int = 1000
    budget_enum: int = 64
    oracle_max: int = 100_000
    oracle_sample: int = 20_000

    def anchor_ordinals(self) -> list[Ordinal]:
        return [parse_cnf(a) for a in self.anchors]


class Workspace:
    """One coherent system with the three families hanging off it."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.coh = CoherentSystem()
        self.injs = InjFamily(self.coh)
        self.bits = BitFamily(self.coh)
        self.digits = DigitFamily(self.bits)


class Tally:
    """One property's checks, failed checks and skipped fixtures by reason.

    The property passes iff it made at least one check and none failed.  A
    batch of checks counted elsewhere is added to ``checks`` and ``failed``.
    """

    __slots__ = ("name", "checks", "failed", "skipped")

    def __init__(self, name: str):
        self.name = name
        self.checks = self.failed = 0
        self.skipped: dict[str, int] = {}

    def check(self, cond) -> None:
        self.checks += 1
        if not cond:
            self.failed += 1

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def result(self, context: str = "") -> dict:
        """The report entry; its note leads with the counts, then ``context``."""
        counts = [f"{self.checks} checks", f"{self.failed} failed"]
        counts += [f"{n} skipped ({reason})" for reason, n in self.skipped.items()]
        note = ", ".join(counts)
        return {
            "name": self.name,
            "passed": self.checks > 0 and self.failed == 0,
            "note": f"{note}; {context}" if context else note,
        }


def suite_coherence(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    coh = ws.coh
    rng = random.Random(config.seed)
    named = config.anchor_ordinals()
    anchors = sorted(set(named).union(map(from_nat, range(config.nat_anchors + 1))))
    injective, odd, exact = Tally("injectivity-per-anchor"), Tally("values-odd"), Tally("delta-witnesses-exact")

    # one pass over the anchors in order: each grid point of an anchor is
    # checked once; its grid and values are kept for the later anchors, as
    # the eval_e memo keeps the grid's points alive anyway
    named_points = witnesses = 0
    for i, alpha in enumerate(anchors):
        grid = list(grid_below(alpha, config.trials))
        own = []
        for xi in grid:
            v = coh.eval_e(alpha, xi)
            own.append(v)
            odd.check(v % 2)
            # decoding shares no code with eval_e, so a value two points
            # share decodes to at most one of them
            injective.check(coh.position_of_value(alpha, v) == xi)
        if not alpha.is_nat():
            named_points += len(own)
        for beta in anchors[i + 1 :]:
            delta = coh.delta_e(alpha, beta)
            witnesses += len(delta)
            for xi in delta:
                va, vb = coh.eval_e(alpha, xi), coh.eval_e(beta, xi)
                odd.check(va % 2)
                odd.check(vb % 2)
                exact.check(va != vb)
            for xi, v in zip(grid, own):
                if xi not in delta:
                    exact.check(v == coh.eval_e(beta, xi))
    pairs = len(anchors) * (len(anchors) - 1) // 2
    props = [
        injective.result(f"(anchor, position) pairs over {len(anchors)} anchors, {named_points} on named anchors"),
        odd.result(),
        exact.result(f"{witnesses} witnesses and {exact.checks - witnesses} grid agreements over {pairs} anchor pairs"),
    ]

    # each composite ladder point p of a limit is re-keyed at its seam, so
    # e_lam(p) is the table's entry and differs from e_(p+1)(p), p's birth value
    table = Tally("correction-table-matches-eval")
    limits = [lam for lam in named if classify(lam) == "limit"]
    for lam in limits:
        for p, seam in coh.correction_table(lam, LADDER_STAGES).items():
            table.check(coh.eval_e(lam, p) == seam and p in coh.delta_e(add_ord(p, ONE), lam))
    props.append(table.result(f"the first {LADDER_STAGES} ladder points of {len(limits)} limit anchors"))

    fresh = CoherentSystem()
    same = Tally("determinism-fresh-system")
    for alpha in named:
        for xi in [rand_below(rng, alpha) for _ in range(20)]:
            same.check(coh.eval_e(alpha, xi) == fresh.eval_e(alpha, xi))
    props.append(same.result())
    return props


def suite_delta_x(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    bits = ws.bits
    stems = [ZERO] + [a for a in ws.config.anchor_ordinals() if classify(a) == "limit"]
    contained = Tally("delta-inside-candidate-set")
    disagree = Tally("delta-members-disagree")
    complete = Tally("delta-complete-on-grid")
    for i, alpha in enumerate(stems):
        for beta in stems[i:]:
            delta = bits.char_delta(alpha, beta)
            contained.check(delta <= bits.char_delta_candidates(alpha, beta))
            stem_a, stem_b = bits.char_stem(alpha), bits.char_stem(beta)
            for eta in delta:
                disagree.check(bits.query(stem_a, eta) != bits.query(stem_b, eta))
            for eta in grid_below(alpha, config.trials):
                if eta not in delta:
                    complete.check(bits.query(stem_a, eta) == bits.query(stem_b, eta))
    # each member is one check of delta-members-disagree
    return [
        contained.result(f"{disagree.checks} members"),
        disagree.result(),
        complete.result("each pair at the lower stem's grid, off its difference set"),
    ]


def suite_tree_closure(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    bits, digits = ws.bits, ws.digits
    rng = random.Random(config.seed)
    anchors = config.anchor_ordinals()

    restricted = Tally("bit-restrictions-member")
    for alpha in anchors:
        for _ in range(100):
            x = rand_bit_node(rng, bits, alpha)
            beta = rand_below(rng, alpha)
            y = bits.restrict(x, beta)
            restricted.check(bits.contains(y))
            for _ in range(5):
                if beta.is_zero():
                    break
                xi = rand_below(rng, beta)
                restricted.check(bits.query(y, xi) == bits.query(x, xi))

    glued = Tally("glue-restrictions-member")
    for alpha in anchors:
        for _ in range(100):
            beta = rand_below(rng, alpha)
            u = rand_digit_node(rng, digits, beta)
            t = rand_bit_node(rng, bits, alpha)
            node = digits.glue(u, t)
            cut = rand_below(rng, alpha)
            glued.check(digits.contains(digits.restrict(node, cut)))
    props = [restricted.result(), glued.result()]

    # each node is read at its anchor's grid and at every one of its own
    # flip and tail positions, where a fault in the embedding would show
    embedded = Tally("embedding-pointwise")
    nodes = 0  # one height check each; every other check reads a coordinate
    for alpha in anchors:
        grid = list(grid_below(alpha, config.trials, NODE_GRID_COEFF))
        on_grid = set(grid)
        gamma, m = block_decompose(alpha)
        tails = [add_ord(gamma, from_nat(i)) for i in range(m)]
        for _ in range(100):
            t = rand_bit_node(rng, bits, alpha)
            u = digits.embed_bits(t)
            nodes += 1
            embedded.check(digits.height(u) == bits.height(t))
            for xi in grid + [xi for xi in {*t.flips, *tails} if xi not in on_grid]:
                embedded.check(digits.query(u, xi) == bits.query(t, xi))
    coords = embedded.checks - nodes
    props.append(
        embedded.result(f"{nodes} nodes at {coords} coordinates: each anchor's grid and every flip and tail position")
    )

    # one check per digit successor read: it is new, and the bit node drawn
    # at the same anchor has exactly two successors
    split = Tally("splitting-degrees")
    for alpha in anchors:
        x = rand_bit_node(rng, bits, alpha)
        binary = len(list(bits.successors(x))) == 2
        u = rand_digit_node(rng, digits, alpha)
        stream = digits.successors(u)
        seen = set()
        for _ in range(config.budget_enum):
            s = next(stream)
            split.check(binary and s not in seen)
            seen.add(s)
    props.append(split.result())

    injs = ws.injs
    inj = Tally("inj-restrictions-member")
    for alpha in anchors:
        for _ in range(20):
            x = rand_inj_node(rng, injs, alpha)
            beta = rand_below(rng, alpha)
            xis = [] if beta.is_zero() else [rand_below(rng, beta) for _ in range(5)]
            y = injs.restrict(x, beta)
            inj.check(injs.contains(y) and all(injs.query(y, xi) == injs.query(x, xi) for xi in xis))
            kids = list(islice(injs.successors(x), 4))
            inj.check(len(set(kids)) == 4 and all(injs.restrict(k, alpha) == x for k in kids))
    props.append(inj.result())
    return props


def suite_wedge_safe(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    digits = ws.digits
    tinu = BinaryInsideDigits(digits)
    limits = [a for a in config.anchor_ordinals() if classify(a) == "limit"]

    found, uncovered = Tally("safe-points-at-limits"), Tally("full-subtree-never-covered")
    if not limits:
        found.skip("no limit anchor")
        uncovered.skip("no limit anchor")
    for alpha in limits:
        w = find_safe_point(tinu, alpha)
        found.check(w is not None and is_safe(tinu, w) and digits.height(w) == alpha)
        uncovered.check(not covers_within(tinu, alpha))

    cut = parse_cnf("w")
    trunc = TruncatedSubtree(BinaryInsideDigits(digits), cut)
    covered = Tally("truncated-covered-above-cut")
    for alpha in [a for a in limits if cut < a] + [add_ord(cut, ONE)]:
        covered.check(covers_within(trunc, alpha))
    still = Tally("truncated-safe-below-cut")
    for alpha in (from_nat(3), cut):
        still.check(not covers_within(trunc, alpha))
    props = [found.result(), uncovered.result(), covered.result(), still.result()]

    # each draw is a member of the safe set, an embedded bit node, and a
    # non-member of the same height, the member with one digit >= 2
    S = SafeSubtree(tinu)
    rng = random.Random(config.seed)
    closed, filtered = Tally("safe-set-downward-closed"), Tally("safe-set-filter-is-rule")
    for _ in range(100):
        if not limits:
            closed.skip("no limit anchor")
            filtered.skip("no limit anchor")
            continue
        alpha = rng.choice(limits)
        t = rand_bit_node(rng, ws.bits, alpha)
        u = digits.embed_bits(t)
        v = digits.assemble(t, {rand_below(rng, alpha): 2 + rng._randbelow(3)}, ())
        closed.check(is_safe(S, u) and is_safe(S, digits.restrict(u, rand_below(rng, alpha))))
        promised = sorted(k.trail[-1] for k in S.values(u))
        filtered.check(is_safe(S, u) and promised == [0, 1] and not is_safe(S, v) and S.values(v) == [])
    context = "members drawn as embedded bit nodes, each with a non-member that has one digit >= 2" if limits else ""

    # finite and successor cuts, which the limit cut above never reaches: an
    # embedded bit node is safe exactly when it lies below the cut
    below_cut = Tally("truncated-safe-iff-below-cut")
    for h in (from_nat(3), parse_cnf("w+1"), parse_cnf("w*2+2")):
        rule = TruncatedSubtree(tinu, h)
        for level in (pred(h), h, add_ord(h, ONE)):
            for _ in range(5):
                u = digits.embed_bits(rand_bit_node(rng, ws.bits, level))
                below_cut.check(is_safe(rule, u) == (level < h))
    return props + [closed.result(context), filtered.result(context), below_cut.result()]


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
        # one check per rule; the sweep stops at the first failing rule
        rules = Tally(f"oracle-{label}-h{height}")
        rules.checks = report["covers_checked"]
        rules.failed = int(bool(report["counterexamples"]))
        if report["sampled"]:
            context = f"seeded samples: space {report['space']} exceeds the guard {config.oracle_max}"
        else:
            context = "exhaustive over the rule space"
        props.append(rules.result(context))
    return props


def _points() -> list[TaggedPoint]:
    """The 1,248 points of up to three digits below 5 then a last digit in
    1..4, on both sides, in order: trimmed by construction."""
    seqs = [(*head, last) for k in range(4) for head in product(range(5), repeat=k) for last in range(1, 5)]
    return sorted(_point(side, seq) for side in "LR" for seq in seqs)


def suite_sorgenfrey(config: RunConfig) -> list[dict]:
    rng = random.Random(config.seed)
    points = _points()
    n = len(points)

    # the points of the space in [x, v) form a run from x, so another point
    # in the box puts x's successor in it; far probes test Box.contains itself
    isolated = Tally("isolation-boxes")
    below = rng._randbelow
    for i, x in enumerate(points):
        u, v, box = isolating_box(x)
        isolated.check(box.contains((x, neg(x))))
        near = points[max(i - 1, 0) : i] + points[i + 1 : i + 2]
        for y in near + [points[(i + 1 + below(n - 1)) % n] for _ in range(4)]:
            isolated.check(not box.contains((y, neg(y))))

    between = Tally("between-strict")
    seeded = [sorted(rng.sample(range(n), 2)) for _ in range(1000)]
    for i, j in [(i, i + 1) for i in range(n - 1)] + seeded:
        a, b = points[i], points[j]
        z = find_between(a, b)
        between.check(a < z and z < b)

    monotone = Tally("injection-monotone")
    for _ in range(1000):
        pts = sorted(rng.sample(points, 6))
        bounds = {x: find_between(x, nxt) for x, nxt in zip(pts, pts[1:])}
        usable = pts[:-1]
        try:
            out = dense_injection(usable, bounds)
        except Exception:
            monotone.check(False)
            continue
        for a, b in zip(usable, usable[1:]):
            monotone.check(out[a] < out[b])

    scan = Tally("endpoint-scan-matches-bruteforce")
    for _ in range(1000):
        pts = sorted(rng.sample(points, 8))
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
        scan.check(got == expect)
    return [
        isolated.result(f"all {n} points, each against its neighbours and 4 seeded far probes"),
        between.result(f"all {n - 1} adjacent pairs and {len(seeded)} seeded pairs"),
        monotone.result(),
        scan.result(),
    ]


def _random_explicit_condition(rng, family, tally, refused):
    """A condition built by including up to three drawn keys; a key that
    cannot be included is skipped in ``tally`` and listed in ``refused`` as
    the condition and the keys that would have served, [key]."""
    p = {}
    nodes = [x for x in family.parent if family.children[x]]
    for _ in range(rng.randrange(0, 4)):
        x = rng.choice(nodes)
        try:
            p = extend_to_include(family, p, x)
        except ExtensionError:
            tally.skip("ExtensionError drawing a key")
            refused.append((p, [x]))
    return p


def _extends_by_one_key(tree, p, z) -> bool:
    """Whether p, or p + {z: S} for some non-empty set S of z's children, is
    a condition that satisfies the routing law, checked by brute force over
    S from the tree's parent links alone: every key v and every key u below
    it need the step from u towards v in u's promise."""
    if z in p:
        return True
    kids = tree.children[z]
    for size in range(1, len(kids) + 1):
        for promise in combinations(kids, size):
            q = {**p, z: promise}
            if all(step in q[u] for v in q for step, u in _steps_down(tree, v) if u in q):
                return True
    return False


def _steps_down(tree, v):
    """(step, u) for each proper predecessor u of v, step being the child of u
    on the way to v."""
    step, u = v, tree.parent[v]
    while u is not None:
        yield step, u
        step, u = u, tree.parent[u]


def _random_symbolic_condition(rng, digits, limits, tally):
    """As _random_explicit_condition, with up to two keys below drawn limit
    anchors."""
    p = {}
    for _ in range(rng.randrange(0, 3)):
        alpha = rand_below(rng, rng.choice(limits))
        try:
            p = extend_to_include(digits, p, rand_digit_node(rng, digits, alpha))
        except ExtensionError:
            tally.skip("ExtensionError drawing a key")
    return p


def suite_forcing_ccc(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    digits = ws.digits
    rng = random.Random(config.seed)
    fam = ExplicitTree.complete(2, 5)

    # one check per fixture built; keys stop above the leaves, so every
    # fixture extends, and the two regions are disjoint subtrees
    union = Tally("union-of-delta-system-pairs")
    for _ in range(config.trials):
        root_part = {}
        if rng.random() < 0.5:
            root_part = {"r": frozenset({"0", "1"})}
        p, q = dict(root_part), dict(root_part)
        region_p, region_q = ("00", "10") if rng.random() < 0.5 else ("01", "11")
        try:
            for _ in range(rng.randrange(1, 3)):
                p = extend_to_include(fam, p, region_p + "0" * rng.randrange(0, 2))
            for _ in range(rng.randrange(1, 3)):
                q = extend_to_include(fam, q, region_q + "0" * rng.randrange(0, 2))
        except ExtensionError:
            union.check(False)
            continue
        r = union_compatible(fam, p, q)
        union.check(r is not None and is_valid_condition(fam, r) and cond_leq(fam, r, p) and cond_leq(fam, r, q))

    finder = Tally("delta-system-finder")
    for _ in range(200):
        core = frozenset(rng.sample(range(10), rng.randrange(0, 3)))
        fams = []
        for i in range(6):
            extra = {10 + 3 * i, 11 + 3 * i}
            fams.append(core | frozenset(rng.sample(sorted(extra), rng.randrange(1, 3))))
        got = delta_system(fams, 4)
        finder.check(got is not None and got[0] == core and len(got[1]) == 4)

    symbolic = Tally("union-symbolic-pairs")
    for _ in range(100):
        # symbolic version: off-root keys diverge at the first digit
        d1, d2 = rng.sample(range(4), 2)
        u1 = digits.node([("d", d1), ("d", rng.randrange(2))])
        u2 = digits.node([("d", d2), ("d", rng.randrange(2))])
        p = extend_to_include(digits, {}, u1)
        q = extend_to_include(digits, {}, u2)
        r = union_compatible(digits, p, q)
        symbolic.check(r is not None and is_valid_condition(digits, r))
    return [union.result(), finder.result(), symbolic.result()]


def suite_forcing_density(config: RunConfig) -> list[dict]:
    ws = Workspace(config)
    digits = ws.digits
    rng = random.Random(config.seed)
    fam = ExplicitTree.complete(2, 5)
    limits = [a for a in config.anchor_ordinals() if classify(a) == "limit"]

    # one check per fixture extended; the explicit refusals are listed as
    # (condition, the keys that would have served) and checked below
    extended = Tally("extensions-valid")
    refused = []
    while extended.checks < config.trials:
        symbolic = rng.random() < 0.3
        if symbolic and not limits:  # every symbolic fixture draws below a limit anchor
            extended.skip("no limit anchor")
            continue
        family = digits if symbolic else fam
        p = (
            _random_symbolic_condition(rng, digits, limits, extended)
            if symbolic
            else _random_explicit_condition(rng, fam, extended, refused)
        )
        mode = rng.randrange(3)
        reached = True
        goal = None  # the node to include; None when a height is to be reached
        try:
            if mode == 0 and p:
                # include a restriction of an existing key
                x = rng.choice(sorted(p, key=str))
                beta = rand_below(rng, family.height(x)) if not family.height(x).is_zero() else ZERO
                goal = family.restrict(x, beta)
                r = extend_to_include(family, p, goal)
            elif mode == 1 and p:
                # include a promised successor
                succ = sorted((z for s in p.values() for z in s), key=str)
                goal = rng.choice(succ)
                r = extend_to_include(family, p, goal)
            else:
                alpha = (
                    rand_below(rng, rng.choice(limits))
                    if symbolic
                    else from_nat(rng.randrange(0, 4))
                )
                r = extend_above(family, p, alpha)
                reached = any(not family.height(x) < alpha for x in r)
        except ExtensionError:
            extended.skip("ExtensionError")
            if not symbolic:
                keys = [goal] if goal is not None else [z for z, d in fam.depth.items() if d >= alpha.to_nat()]
                refused.append((p, keys))
            continue
        extended.check(reached and is_valid_condition(family, r) and cond_leq(family, r, p))

    # every explicit refusal, drawing a key or extending, against a brute
    # force: the routing law is pairwise, so a valid extension cut down to p
    # and one key that serves is still valid, and one-key extensions suffice
    exhausted = Tally("explicit-refusals-exhaustive")
    for p, keys in refused:
        exhausted.check(not any(_extends_by_one_key(fam, p, z) for z in keys))

    simulated = Tally("simulation-fragments")
    for _ in range(100):
        symbolic = rng.random() < 0.4
        if symbolic and not limits:  # every symbolic target draws a limit anchor
            simulated.skip("no limit anchor")
            continue
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
            simulated.skip("ExtensionError")
            continue
        checks = report["checks"]
        simulated.check(checks["valid"] and checks["window_downward_closed"] and checks["fragment_successors_promised"])

    totalized = Tally("specializer-totalizes")
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
        totalized.check(len(q) == len(order) and is_valid_spec(tree, q))
    context = "each a search of the one-key extensions; symbolic refusals are skips of extensions-valid"
    return [extended.result(), exhausted.result(context), simulated.result(), totalized.result()]


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
        "config": config._asdict(),
        "properties": props,
        "pass": all(p["passed"] for p in props),
    }
