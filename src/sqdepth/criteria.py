"""Numeric depth bounds from layer counts of the divisibility poset.

Two families of integer inequalities on the degree profile rho of I \\ J
certify an upper bound on depth over every coefficient field at once:

* the alternating-sum test at level t compares rho_{t+1} against
  alpha_t = sum_{i=0}^{t-d} (-1)^{t-d+i} rho_{d+i}, and
* the binomial-sum test at (t, k) compares rho_k against
  sum_{j=d}^{k-1} (-1)^{k-j+1} C(t+1-j, k-j) rho_j.

A fired test means depth(I/J) <= t for every field; if depth >= t is known
independently the bound pins depth = t.  Everything here is exact integer
arithmetic, so verdicts cannot depend on a characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .monomial import IdealPair, InvariantError, PosetLayers, build_poset


class OutOfRange(ValueError):
    """A criterion was requested at an inadmissible level t or index k."""


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one inequality test.

    ``fired`` holds exactly when ``lhs < rhs``.  ``k`` is None for the
    alternating kind.  ``implied_upper_bound`` equals ``t`` when fired,
    else None.
    """

    kind: str
    t: int
    k: int | None
    lhs: int
    rhs: int
    fired: bool

    def __post_init__(self):
        if self.fired != (self.lhs < self.rhs):
            raise InvariantError(f"fired={self.fired} but lhs={self.lhs}, rhs={self.rhs}")

    @property
    def implied_upper_bound(self) -> int | None:
        return self.t if self.fired else None


def _layers(obj: IdealPair | PosetLayers) -> PosetLayers:
    if isinstance(obj, IdealPair):
        return build_poset(obj)
    return obj


def alternating_layer_sum(layers: IdealPair | PosetLayers, t: int) -> int:
    """alpha_t: the alternating sum of rho_d .. rho_t, last term positive."""
    layers = _layers(obj=layers)
    d, n = layers.d, layers.pair.n
    if not d <= t < n:
        raise OutOfRange(f"level t={t} outside [{d}, {n})")
    return sum((-1) ** (t - d + i) * layers.rho[d + i] for i in range(t - d + 1))


def alternating_criterion(layers: IdealPair | PosetLayers, t: int) -> CriterionVerdict:
    """Test rho_{t+1} < alpha_t; fired means depth <= t in every characteristic."""
    layers = _layers(obj=layers)
    rhs = alternating_layer_sum(layers, t)
    lhs = layers.rho[t + 1]
    return CriterionVerdict("alternating", t, None, lhs, rhs, lhs < rhs)


def binomial_criterion(layers: IdealPair | PosetLayers, t: int, k: int) -> CriterionVerdict:
    """Test rho_k against the binomial-weighted alternating sum at (t, k).

    Admissible when d <= t < n and d+1 <= k <= t+1.  At k = t+1 the sum
    collapses to alpha_t, so this strictly generalizes the alternating test.
    """
    layers = _layers(obj=layers)
    d, n = layers.d, layers.pair.n
    if not d <= t < n:
        raise OutOfRange(f"level t={t} outside [{d}, {n})")
    if not d + 1 <= k <= t + 1:
        raise OutOfRange(f"index k={k} outside [{d + 1}, {t + 1}]")
    lhs = layers.rho[k]
    rhs = sum(
        (-1) ** (k - j + 1) * math.comb(t + 1 - j, k - j) * layers.rho[j]
        for j in range(d, k)
    )
    return CriterionVerdict("binomial", t, k, lhs, rhs, lhs < rhs)


def all_verdicts(layers: IdealPair | PosetLayers) -> list[CriterionVerdict]:
    """Every admissible verdict, alternating before binomial at each level."""
    layers = _layers(obj=layers)
    d, n = layers.d, layers.pair.n
    out: list[CriterionVerdict] = []
    for t in range(d, n):
        out.append(alternating_criterion(layers, t))
        for k in range(d + 1, t + 2):
            out.append(binomial_criterion(layers, t, k))
    return out


def best_upper_bound(
    layers: IdealPair | PosetLayers,
) -> tuple[int | None, list[CriterionVerdict]]:
    """Sweep all admissible tests; return (minimal fired t or None, all verdicts)."""
    verdicts = all_verdicts(layers)
    fired = [v.t for v in verdicts if v.fired]
    return (min(fired) if fired else None, verdicts)
