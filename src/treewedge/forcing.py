"""Splitting-promise conditions and the specializing poset, as finite
combinatorics.

A condition is a finite map sending nodes to finite non-empty sets of their
immediate successors, subject to the routing law: whenever two domain nodes
are comparable, the lower one's promise contains the step towards the upper
one.  Extension never shrinks promises (stronger = superset), so a condition
pins down how a finitely-splitting fragment may keep growing.

The specializing side assigns rationals to nodes, order preservingly; fresh
values are the Stern-Brocot simplest rationals in the forced interval.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .literals import format_node
from .ordinal import Ordinal, ZERO, add_ord, from_nat
from .trees import TreeFamily, first_successor, is_immediate_successor, tree_le


class ExtensionError(ValueError):
    """No valid extension exists for the requested target."""


class BudgetExceeded(RuntimeError):
    pass


Condition = dict  # node -> frozenset of immediate successors


def is_valid_condition(family: TreeFamily, p: Condition) -> bool:
    for x, succ in p.items():
        if not succ:
            return False
        if not all(is_immediate_successor(family, x, z) for z in succ):
            return False
    keys = list(p)
    for x in keys:
        for y in keys:
            if tree_le(family, x, y) == "below":
                step = family.restrict(y, add_ord(family.height(x), from_nat(1)))
                if step not in p[x]:
                    return False
    return True


def cond_leq(family: TreeFamily, p: Condition, q: Condition) -> bool:
    """p extends q as a map (stronger condition)."""
    return all(x in p and p[x] == q[x] for x in q)


def union_compatible(family: TreeFamily, p: Condition, q: Condition):
    """The union, when p and q agree on shared keys and the routing law
    survives; None otherwise."""
    for x in p:
        if x in q and p[x] != q[x]:
            return None
    r = dict(p)
    r.update(q)
    return r if is_valid_condition(family, r) else None


def extend_to_include(family: TreeFamily, p: Condition, x) -> Condition:
    """Valid r <= p with x in its domain.

    Promised steps are harvested from domain nodes above x; absent those, x
    promises its first canonical successor.  The result is revalidated: a
    target that no promise routes to raises ExtensionError.
    """
    if x in p:
        return dict(p)
    up_one = add_ord(family.height(x), from_nat(1))
    above = [t for t in p if tree_le(family, x, t) == "below"]
    if above:
        promise = frozenset(family.restrict(t, up_one) for t in above)
    else:
        try:
            promise = frozenset([first_successor(family, x)])
        except StopIteration:
            raise ExtensionError(f"{format_node(family, x)} has no successors to promise")
    r = dict(p)
    r[x] = promise
    # only pairs through x are new; the law can only fail below x
    for u in p:
        if tree_le(family, u, x) == "below":
            step = family.restrict(x, add_ord(family.height(u), from_nat(1)))
            if step not in p[u]:
                raise ExtensionError(
                    f"{format_node(family, x)} is not routed by the promise at "
                    f"{format_node(family, u)}"
                )
    return r


def extend_above(family: TreeFamily, p: Condition, alpha: Ordinal) -> Condition:
    """Valid r <= p whose domain reaches height >= alpha."""
    if any(not family.height(x) < alpha for x in p):
        return dict(p)
    if not p:
        z = family.canonical_extension(family.root(), alpha)
        return {z: _own_promise(family, z)}
    promised = sorted(
        (y for succ in p.values() for y in succ),
        key=lambda y: (family.height(y), format_node(family, y)),
    )
    y = promised[-1]
    if not family.height(y) < alpha:
        return extend_to_include(family, p, y)
    z = family.canonical_extension(y, alpha)
    r = dict(p)
    r[z] = _own_promise(family, z)
    for u in p:
        if tree_le(family, u, z) == "below":
            step = family.restrict(z, add_ord(family.height(u), from_nat(1)))
            if step not in p[u]:
                raise ExtensionError("extension above lost the routing law")
    return r


def _own_promise(family, z):
    try:
        return frozenset([first_successor(family, z)])
    except StopIteration:
        raise ExtensionError(f"{format_node(family, z)} has no successors to promise")


def delta_system(sets, k: int):
    """A size-k subfamily with all pairwise intersections equal, if any.

    Exhaustive search with the root fixed by the first pair; desk scale.
    """
    sets = [frozenset(s) for s in sets]
    if k <= 1:
        return (frozenset(), sets[:k]) if len(sets) >= k else None
    for combo in combinations(range(len(sets)), k):
        root = sets[combo[0]] & sets[combo[1]]
        ok = True
        for i, j in combinations(combo, 2):
            if sets[i] & sets[j] != root:
                ok = False
                break
        if ok:
            return root, [sets[i] for i in combo]
    return None


def incomparable_pair(family: TreeFamily, sets):
    """Two of the given finite node-sets that are elementwise incomparable
    (None when every pair meets); the finite search behind ccc arguments."""
    sets = [list(s) for s in sets]
    for a, b in combinations(sets, 2):
        if all(tree_le(family, x, y) == "incomparable" for x in a for y in b):
            return a, b
    return None


# --- specializing poset -----------------------------------------------------------

def simplest_between(lo, hi) -> Fraction:
    """Stern-Brocot first hit in the open interval (lo, hi); None bounds mean
    the interval is unbounded on that side."""
    if lo is not None and hi is not None and not lo < hi:
        raise ExtensionError(f"empty interval ({lo}, {hi})")
    if (lo is None or lo < 0) and (hi is None or 0 < hi):
        return Fraction(0)
    if hi is not None and hi <= 0:
        return -simplest_between(None if hi is None else -hi, None if lo is None else -lo)
    # now 0 <= lo < hi
    n = lo.numerator // lo.denominator  # floor
    if hi is None or n + 1 < hi:
        return Fraction(n + 1)
    frac = lo - n
    if frac == 0:
        inner = simplest_between(1 / (hi - n), None)
    else:
        inner = simplest_between(1 / (hi - n), 1 / frac)
    return n + 1 / inner


def is_valid_spec(family: TreeFamily, q: dict) -> bool:
    for x in q:
        for y in q:
            if tree_le(family, x, y) == "below" and not q[x] < q[y]:
                return False
    return True


def spec_extend(family: TreeFamily, q: dict, x) -> dict:
    """Add x to an order-preserving rational labelling, choosing the simplest
    admissible value."""
    if x in q:
        return dict(q)
    lo = hi = None
    for y, v in q.items():
        rel = tree_le(family, y, x)
        if rel == "below" and (lo is None or v > lo):
            lo = v
        if rel == "above" and (hi is None or v < hi):
            hi = v
    if lo is not None and hi is not None and not lo < hi:
        raise ExtensionError(f"no admissible value in ({lo}, {hi})")
    r = dict(q)
    r[x] = simplest_between(lo, hi)
    return r


# --- filter simulation --------------------------------------------------------------

def simulate_filter(family: TreeFamily, targets, budget: int = 1000):
    """Run the extension algorithms over a target script from the empty
    condition and report the resulting fragment.

    Targets are ("include", node) or ("reach", ordinal).  The fragment is the
    domain closed downward within the materialized heights, and the report
    certifies the window closure plus the promise discipline: materialized
    successors of a domain node inside the fragment sit in its promise.
    """
    p: Condition = {}
    steps = 0
    for kind, payload in targets:
        steps += 1
        if steps > budget:
            raise BudgetExceeded(f"more than {budget} extension steps")
        if kind == "include":
            p = extend_to_include(family, p, payload)
        elif kind == "reach":
            p = extend_above(family, p, payload)
        else:
            raise ValueError(f"unknown target {kind!r}")
    heights = {ZERO}
    for x in p:
        heights.add(family.height(x))
        heights.add(add_ord(family.height(x), from_nat(1)))
    fragment = set(p)
    for x in p:
        for beta in heights:
            if beta < family.height(x):
                fragment.add(family.restrict(x, beta))
    window_closed = all(
        family.restrict(y, beta) in fragment
        for y in fragment
        for beta in heights
        if beta < family.height(y)
    )
    promises_respected = all(
        z in succ
        for x, succ in p.items()
        for z in fragment
        if is_immediate_successor(family, x, z)
    )
    report = {
        "condition": serialize_condition(family, p),
        "fragment": sorted(format_node(family, y) for y in fragment),
        "checks": {
            "window_downward_closed": window_closed,
            "fragment_successors_promised": promises_respected,
            "valid": is_valid_condition(family, p),
        },
    }
    return p, report


def serialize_condition(family: TreeFamily, p: Condition) -> list:
    return [
        {
            "node": format_node(family, x),
            "promises": sorted(format_node(family, z) for z in succ),
        }
        for x, succ in sorted(p.items(), key=lambda kv: format_node(family, kv[0]))
    ]
