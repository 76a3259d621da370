"""The lcm configuration route to the paper's depth-step statement.

For an instance with 2 or 3 degree-d generators, classify the pairwise
lcms (in B, C, J or above), label the configuration, and check the
counting bounds on s = |B| and q = |C| proved for it. The analysis
report's lcm section runs this classifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .monomial import IdealPair, Monomial, build_poset, masks_contain


class NotApplicable(ValueError):
    """The lcm classifier preconditions fail for this instance."""


# ---------------------------------------------------------------------------
# lcm configuration classifier


class LcmClass(Enum):
    """Where the lcm of two least-degree generators lands relative to I \\ J."""

    IN_B = "B"
    IN_C = "C"
    IN_J = "J"
    DEG_TOO_BIG = "big"


def lcm_pairs(pair: IdealPair) -> dict[tuple[int, int], tuple[int, LcmClass]]:
    """Classify lcm(f_i, f_j), as a mask, for the degree-d generators f_1 < f_2 < ... of I.

    Keys are 1-based (i, j) with i < j, indexing the canonically sorted
    degree-d generators. Two distinct degree-d generators have an lcm of
    degree at least d+1, so the lcm never equals a generator.
    """
    gens = pair.degree_d_masks()
    out: dict[tuple[int, int], tuple[int, LcmClass]] = {}
    for a, b in itertools.combinations(range(len(gens)), 2):
        w = gens[a] | gens[b]
        if masks_contain(pair.j_masks, w):
            cls = LcmClass.IN_J
        elif w.bit_count() == pair.d + 1:
            cls = LcmClass.IN_B
        elif w.bit_count() == pair.d + 2:
            cls = LcmClass.IN_C
        else:
            cls = LcmClass.DEG_TOO_BIG
        out[(a + 1, b + 1)] = (w, cls)
    return out


@dataclass(frozen=True)
class BoundCheck:
    """One counting bound evaluated on an instance."""

    description: str
    observed: int
    required: int
    holds: bool


def _ge(desc: str, observed: int, required: int) -> BoundCheck:
    return BoundCheck(desc, observed, required, observed >= required)


def _eq(desc: str, observed: int, required: int) -> BoundCheck:
    return BoundCheck(desc, observed, required, observed == required)


def _le(desc: str, observed: int, required: int) -> BoundCheck:
    return BoundCheck(desc, observed, required, observed <= required)


@dataclass(frozen=True)
class LcmConfiguration:
    """Configuration label plus measured counts and evaluated bounds."""

    label: str
    s: int
    q: int
    q_pair: dict = field(compare=False)
    checks: tuple = ()

    @property
    def violations(self):
        return [c for c in self.checks if not c.holds]


def _q_pair_counts(pair: IdealPair, lcms) -> dict:
    c_masks = build_poset(pair).layer_masks(pair.d + 2)
    return {ij: sum(1 for c in c_masks if c & w == w) for ij, (w, _cls) in lcms.items()}


def classify_lcm_configuration(inst: IdealPair) -> LcmConfiguration:
    """Label the lcm configuration of a 2- or 3-generator instance and check
    the counting bounds provable for that configuration.

    Preconditions: exactly 2 or 3 generators, all of degree d, and every
    element of C is a multiple of some pairwise lcm; otherwise NotApplicable.
    """
    k = len(inst.degree_d_masks())
    if k not in (2, 3) or inst.extra_masks():
        raise NotApplicable(f"classifier needs 2 or 3 degree-d generators, got {k}")
    layers = build_poset(inst)
    s, q = layers.s, layers.q
    lcms = lcm_pairs(inst)
    w_masks = [w for w, _ in lcms.values()]
    for c in layers.layer_masks(inst.d + 2):
        if not any(c & w == w for w in w_masks):
            raise NotApplicable(f"C element {Monomial(c, inst.n)} avoids every pairwise lcm")
    qp = _q_pair_counts(inst, lcms)

    if k == 2:
        (w, cls) = lcms[(1, 2)]
        label = {
            LcmClass.IN_B: "k2-lcm-in-B",
            LcmClass.IN_C: "k2-lcm-in-C",
            LcmClass.IN_J: "k2-lcm-in-J",
            LcmClass.DEG_TOO_BIG: "k2-lcm-too-big",
        }[cls]
        checks = []
        if cls is LcmClass.IN_B:
            checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
        elif cls is LcmClass.IN_C:
            checks.append(_eq("q = 1", q, 1))
        else:
            checks.append(_eq("q = 0", q, 0))
        return LcmConfiguration(label, s, q, qp, tuple(checks))

    by_class: dict[LcmClass, list] = {}
    for ij, (w, cls) in lcms.items():
        by_class.setdefault(cls, []).append(ij)
    n_b = len(by_class.get(LcmClass.IN_B, ()))
    n_c = len(by_class.get(LcmClass.IN_C, ()))
    w_of = {ij: w for ij, (w, _) in lcms.items()}
    checks: list[BoundCheck] = []

    if n_b == 3:
        masks = {w_of[ij] for ij in by_class[LcmClass.IN_B]}
        if len(masks) == 1:
            label = "k3-all-B-equal"
            checks.append(_ge("s >= 3q+1", s, 3 * q + 1))
        else:
            # two equal and one different is impossible for lcms in B
            label = "k3-all-B-distinct"
    elif n_b == 2:
        b_pairs = by_class[LcmClass.IN_B]
        (other_ij,) = [ij for ij in lcms if ij not in b_pairs]
        other_cls = lcms[other_ij][1]
        qb1, qb2 = qp[b_pairs[0]], qp[b_pairs[1]]
        checks.append(_ge("s >= 2q_a+1", s, 2 * qb1 + 1))
        checks.append(_ge("s >= 2q_b+1", s, 2 * qb2 + 1))
        if other_cls is LcmClass.IN_C:
            label = "k3-two-B-one-C"
            checks.append(_eq("q = q_a+q_b-1", q, qb1 + qb2 - 1))
            checks.append(_ge("s >= q+max+2", s, q + max(qb1, qb2) + 2))
            if q > 2:
                checks.append(_ge("s > q+3", s, q + 4))
        elif other_cls is LcmClass.IN_J:
            label = "k3-two-B-one-J"
            checks.append(_eq("q = q_a+q_b", q, qb1 + qb2))
            checks.append(_ge("s >= q+max", s, q + max(qb1, qb2)))
        else:
            # unreachable for valid pairs: two lcms in B force the third
            # to have degree at most d+2
            label = "k3-two-B-one-big"
            checks.append(_eq("q = q_a+q_b", q, qb1 + qb2))
    elif n_b == 1:
        (b_ij,) = by_class[LcmClass.IN_B]
        qb = qp[b_ij]
        others = [ij for ij in lcms if ij != b_ij]
        other_classes = sorted(lcms[ij][1].value for ij in others)
        if all(lcms[ij][1] is LcmClass.IN_C for ij in others):
            if w_of[others[0]] == w_of[others[1]]:
                label = "k3-one-B-two-C-equal"
                checks.append(_eq("q = q_B", q, qb))
                checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
            else:
                label = "k3-one-B-two-C-distinct"
                checks.append(_eq("q = q_B+2", q, qb + 2))
                checks.append(_ge("s >= 2q", s, 2 * q))
                if q > 2:
                    checks.append(_ge("s >= q+4", s, q + 4))
        elif any(lcms[ij][1] is LcmClass.IN_C for ij in others):
            label = "k3-one-B-one-C-one-" + (
                "J" if LcmClass.IN_J.value in other_classes else "big"
            )
            checks.append(_eq("q = q_B+1", q, qb + 1))
            checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
        else:
            label = "k3-one-B-no-C"
            checks.append(_eq("q = q_B", q, qb))
            checks.append(_ge("s >= 2q+1", s, 2 * q + 1))
    else:
        c_masks = {w_of[ij] for ij in by_class.get(LcmClass.IN_C, ())}
        if n_c == 3:
            if len(c_masks) == 3:
                label = "k3-all-C-distinct"
                checks.append(_eq("q = 3", q, 3))
                for ij in lcms:
                    checks.append(_eq(f"q_{ij[0]}{ij[1]} = 1", qp[ij], 1))
                checks.append(_ge("s >= 9", s, 9))
                if inst.d == 2:
                    checks.append(_ge("s >= 12 (disjoint generators)", s, 12))
            else:
                label = "k3-all-C-equal"
                checks.append(_le("q <= 2", q, 2))
        else:
            label = f"k3-no-B-{n_c}C"
            checks.append(_le(f"q <= {len(c_masks)}", q, len(c_masks)))
    return LcmConfiguration(label, s, q, qp, tuple(checks))
