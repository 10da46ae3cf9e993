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
decidable without scanning.

Block 0 of a limit carries no seam and e_{g+1} extends e_g, so e_b agrees
below g with e_g for every g on b's first-step descent (b, then b[0] of a
limit or the predecessor of a successor, down to 0).  ``eval_e`` and
``delta_e`` therefore jump straight to the least such g above the position
or the lower anchor (``ordinal.descent_floor``, read off the CNF terms)
instead of walking the descent one step at a time.  On a limit anchor,
``eval_e`` then reads the position's block off the CNF terms too
(``ordinal.ladder_index``), so its cost never grows with a coefficient;
``delta_e`` still scans the ladder, linear in the number of blocks below
the target.

All operations are pure; memo tables are idempotent fills, so concurrent use
needs no coordination.  ``eval_e``'s memo is keyed by the pair of the
ordinals' ``_key`` tuples, so a lookup hashes and compares in C and never
calls ``Ordinal.__hash__``; a key's order is its ordinal's order.  It reads
the memo before it checks that the position lies below the anchor: every
stored pair passed that check, so a hit skips an ordinal comparison and a
miss is validated as before.
"""

from __future__ import annotations

from .ordinal import (
    ONE,
    Ordinal,
    ZERO,
    _encode_terms,
    classify,
    decode_structural,
    descent_floor,
    from_nat,
    fund_seq,
    ladder_index,
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
        """``ladder(lam, n)`` must follow ``fund_seq``'s rule, since the
        descent jump reads fund_seq's first steps off the CNF terms.  It is a
        parameter only so that ``perfbench/tracing.py`` can swap in a
        counting wrapper through its default."""
        self.ladder = ladder
        self._eval: dict[tuple[tuple, tuple], int] = {}
        self._delta: dict[tuple[Ordinal, Ordinal], frozenset] = {}

    def eval_e(self, alpha: Ordinal, xi: Ordinal) -> int:
        """Value of e_alpha at xi < alpha."""
        key = (alpha._key, xi._key)
        cached = self._eval.get(key)
        if cached is not None:
            return cached
        if not xi < alpha:
            raise ValueError(f"position {xi} not below anchor {alpha}")
        # e_alpha agrees below gam with e_gam for every gam on alpha's
        # first-step descent, so jump to the least such gam above xi
        above = xi + ONE
        anchor = alpha
        while True:
            anchor = descent_floor(anchor, above)
            if classify(anchor) == "successor":
                # the anchor is xi+1, which extends e_xi by xi's birth value
                value = _birth_value(xi)
                break
            # limit anchor whose block 0 ends at or below xi: xi lies in
            # block n >= 1, [ladder(n-1), ladder(n))
            n = ladder_index(anchor, xi)
            prev, ln = self.ladder(anchor, n - 1), self.ladder(anchor, n)
            if xi == prev and not prev.is_nat():
                value = _seam_value(prev)
                break
            anchor = ln
        self._eval[key] = value
        return value

    def delta_e(self, alpha: Ordinal, beta: Ordinal) -> frozenset:
        """Exact set {xi < alpha : e_alpha(xi) != e_beta(xi)} for alpha <= beta.

        Computed by composing block differences and seam tables along the
        ladder of the least anchor >= alpha on beta's first-step descent; no
        coordinate scan happens.
        """
        if beta < alpha:
            raise ValueError(f"anchors out of order: {alpha} > {beta}")
        # e_beta agrees below alpha with e_top for the least top >= alpha on
        # beta's first-step descent; a top other than alpha is a limit whose
        # block 0 ends below alpha
        top = descent_floor(beta, alpha)
        if top == alpha:
            return frozenset()
        key = (alpha, top)
        cached = self._delta.get(key)
        if cached is not None:
            return cached
        out: set[Ordinal] = set()
        prev = ZERO
        n = 0
        while True:
            # block [prev, ln) of e_top is copied from e_ln; the lower of
            # alpha and ln bounds the block's differences from above
            ln = self.ladder(top, n)
            lo_anchor, hi_anchor = (alpha, ln) if alpha < ln else (ln, alpha)
            out.update(xi for xi in self.delta_e(lo_anchor, hi_anchor) if not xi < prev)
            if n >= 1 and not prev.is_nat():
                # e_top re-keys the composite ladder point prev < alpha
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

    def position_of_value(self, alpha: Ordinal, v: int):
        """The unique xi < alpha with e_alpha(xi) == v, or None if absent.

        Even numbers are never produced.  Odd values are keyed to a unique
        candidate position, so the test decodes and re-evaluates; decoding
        ends within the size of v.
        """
        if v < 0 or v % 2 == 0:
            return None
        if v % 4 == 1:
            xi = from_nat((v - 1) // 4)
            return xi if xi < alpha else None
        code = (v - 3) // 8 if v % 8 == 3 else (v - 7) // 8
        xi = decode_structural(code)
        if xi is None or xi.is_nat() or not xi < alpha:
            return None
        return xi if self.eval_e(alpha, xi) == v else None

    def correction_table(self, lam: Ordinal, stages: int) -> dict[Ordinal, int]:
        """Seam re-keyings of the limit anchor lam over its first ``stages``
        ladder blocks (the finite correction table), read off the ladder."""
        if classify(lam) != "limit":
            raise ValueError(f"{lam} is not a limit anchor")
        points = (self.ladder(lam, n) for n in range(stages))
        return {p: _seam_value(p) for p in points if not p.is_nat()}

