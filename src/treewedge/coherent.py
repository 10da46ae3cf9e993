"""A canonical system of injections e_a : a -> omega that cohere mod finite.

For anchors a <= b the restriction of e_b to a differs from e_a on an
explicitly computable finite set.  The construction is block-structured:

* value at a natural position n is always 4n+1;
* a composite position b first appears at the successor step b+1 with the
  reserved value 8*enc(b)+3;
* at a limit anchor the function is the block merge of the ladder anchors
  (block [l_{n-1}, l_n) copied from e_{l_n}), except that each composite
  ladder point gets re-keyed to the seam value 8*enc(p)+7, recorded in the
  anchor's correction table.

Every value is therefore odd and keyed to its position through disjoint
residue streams, which makes injectivity structural and range membership
decidable without scanning.  All operations are pure; memo tables are
idempotent fills, so concurrent use needs no coordination.
"""

from __future__ import annotations

from .ordinal import (
    DecodeBudgetExceeded,
    Ordinal,
    ZERO,
    _encode_terms,
    block_decompose,
    classify,
    cmp_ord,
    decode_structural,
    from_nat,
    fund_seq,
    pred,
)


def _birth_value(xi: Ordinal) -> int:
    if xi.is_nat():
        return 4 * xi.to_nat() + 1
    return 8 * _encode_terms(xi) + 3


def _seam_value(p: Ordinal) -> int:
    return 8 * _encode_terms(p) + 7


class CoherentSystem:
    """Lazy evaluator for the coherent injections, with difference witnesses."""

    def __init__(self, ladder=fund_seq):
        self.ladder = ladder
        self._eval: dict[tuple[Ordinal, Ordinal], int] = {}
        self._delta: dict[tuple[Ordinal, Ordinal], frozenset] = {}
        self._seams: dict[Ordinal, dict[Ordinal, int]] = {}

    def eval_e(self, alpha: Ordinal, xi: Ordinal) -> int:
        """Value of e_alpha at xi < alpha."""
        if not xi < alpha:
            raise ValueError(f"position {xi} not below anchor {alpha}")
        key = (alpha, xi)
        cached = self._eval.get(key)
        if cached is not None:
            return cached
        anchor = alpha
        while True:
            if classify(anchor) == "successor":
                below = pred(anchor)
                if xi == below:
                    value = _birth_value(xi)
                    break
                anchor = below
                continue
            # limit anchor: locate the ladder block containing xi
            prev = ZERO
            n = 0
            while True:
                ln = self.ladder(anchor, n)
                if xi < ln:
                    break
                prev = ln
                n += 1
            if n >= 1 and xi == prev and not prev.is_nat():
                value = _seam_value(prev)
                self._seams.setdefault(anchor, {})[prev] = value
                break
            anchor = ln
        self._eval[key] = value
        return value

    def delta_e(self, alpha: Ordinal, beta: Ordinal) -> frozenset:
        """Exact set {xi < alpha : e_alpha(xi) != e_beta(xi)} for alpha <= beta.

        Computed by composing block differences and seam tables along the
        ladder of beta; no coordinate scan happens.
        """
        c = cmp_ord(alpha, beta)
        if c > 0:
            raise ValueError(f"anchors out of order: {alpha} > {beta}")
        if c == 0:
            return frozenset()
        key = (alpha, beta)
        cached = self._delta.get(key)
        if cached is not None:
            return cached
        if classify(beta) == "successor":
            # e_{lam+m} extends e_{lam+k} for k <= m, so the finite tail of
            # beta drops out in one step, whatever its length
            lam, _ = block_decompose(beta)
            result = self.delta_e(alpha, lam) if alpha < lam else frozenset()
        else:
            out: set[Ordinal] = set()
            prev = ZERO
            n = 0
            while True:
                ln = self.ladder(beta, n)
                hi = ln if ln < alpha else alpha
                if prev < hi:
                    lo_anchor, hi_anchor = (alpha, ln) if alpha < ln else (ln, alpha)
                    for xi in self.delta_e(lo_anchor, hi_anchor):
                        if prev <= xi and xi < hi:
                            out.add(xi)
                if n >= 1 and prev < alpha and not prev.is_nat():
                    if self.eval_e(alpha, prev) != _seam_value(prev):
                        out.add(prev)
                    else:
                        out.discard(prev)
                if not ln < alpha:
                    break
                prev = ln
                n += 1
            result = frozenset(out)
        self._delta[key] = result
        return result

    def range_test_e(self, alpha: Ordinal, v: int, budget: int = 10_000) -> str:
        """'in', 'out' or 'undecided': does v lie in the range of e_alpha?

        Even numbers are never produced.  Odd values are keyed to a unique
        candidate position, so the test decodes and re-evaluates; an honest
        'undecided' is returned if decoding exceeds the budget.
        """
        pos = self.position_of_value(alpha, v, budget)
        if pos is _UNDECIDED:
            return "undecided"
        return "in" if pos is not None else "out"

    def position_of_value(self, alpha: Ordinal, v: int, budget: int = 10_000):
        """The unique xi < alpha with e_alpha(xi) == v, None if absent, or
        the _UNDECIDED sentinel on budget exhaustion."""
        if v < 0 or v % 2 == 0:
            return None
        if v % 4 == 1:
            xi = from_nat((v - 1) // 4)
            return xi if xi < alpha else None
        code = (v - 3) // 8 if v % 8 == 3 else (v - 7) // 8
        try:
            xi = decode_structural(code, fuel=budget)
        except DecodeBudgetExceeded:
            return _UNDECIDED
        if xi is None or xi.is_nat() or not xi < alpha:
            return None
        return xi if self.eval_e(alpha, xi) == v else None

    def correction_table(self, lam: Ordinal, stages: int) -> dict[Ordinal, int]:
        """Seam re-keyings of the limit anchor lam over its first ``stages``
        ladder blocks (the finite correction table, lazily extended)."""
        if classify(lam) != "limit":
            raise ValueError(f"{lam} is not a limit anchor")
        table = self._seams.setdefault(lam, {})
        for n in range(1, stages + 1):
            p = self.ladder(lam, n - 1)
            if not p.is_nat():
                table[p] = _seam_value(p)
        return dict(table)


class _Undecided:
    def __repr__(self):
        return "<undecided>"


_UNDECIDED = _Undecided()
