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
from functools import lru_cache

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


def _profile(obj: IdealPair | PosetLayers) -> tuple[tuple[int, ...], int]:
    """The layer counts rho and the degree d, the only inputs of every test."""
    layers = build_poset(obj) if isinstance(obj, IdealPair) else obj
    return layers.rho, layers.d


def alternating_layer_sum(layers: IdealPair | PosetLayers, t: int) -> int:
    """alpha_t: the alternating sum of rho_d .. rho_t, last term positive."""
    return alternating_criterion(layers, t).rhs


def alternating_criterion(layers: IdealPair | PosetLayers, t: int) -> CriterionVerdict:
    """Test rho_{t+1} < alpha_t; fired means depth <= t in every characteristic."""
    return _alternating(*_profile(layers), t)


def _alternating(rho: tuple[int, ...], d: int, t: int) -> CriterionVerdict:
    if not d <= t < len(rho) - 1:
        raise OutOfRange(f"level t={t} outside [{d}, {len(rho) - 1})")
    lhs = rho[t + 1]
    rhs = sum((-1) ** (t - d + i) * rho[d + i] for i in range(t - d + 1))
    return CriterionVerdict("alternating", t, None, lhs, rhs, lhs < rhs)


def binomial_criterion(layers: IdealPair | PosetLayers, t: int, k: int) -> CriterionVerdict:
    """Test rho_k against the binomial-weighted alternating sum at (t, k).

    Admissible when d <= t < n and d+1 <= k <= t+1.  At k = t+1 the sum
    collapses to alpha_t, so this strictly generalizes the alternating test.
    """
    return _binomial(*_profile(layers), t, k)


def _binomial(rho: tuple[int, ...], d: int, t: int, k: int) -> CriterionVerdict:
    if not d <= t < len(rho) - 1:
        raise OutOfRange(f"level t={t} outside [{d}, {len(rho) - 1})")
    if not d + 1 <= k <= t + 1:
        raise OutOfRange(f"index k={k} outside [{d + 1}, {t + 1}]")
    lhs = rho[k]
    rhs = sum((-1) ** (k - j + 1) * math.comb(t + 1 - j, k - j) * rho[j] for j in range(d, k))
    return CriterionVerdict("binomial", t, k, lhs, rhs, lhs < rhs)


def all_verdicts(layers: IdealPair | PosetLayers) -> tuple[CriterionVerdict, ...]:
    """Every admissible verdict, alternating before binomial at each level."""
    return _sweep(*_profile(layers))[1]


def best_upper_bound(
    layers: IdealPair | PosetLayers,
) -> tuple[int | None, tuple[CriterionVerdict, ...]]:
    """Sweep all admissible tests; return (minimal fired t or None, all verdicts)."""
    return _sweep(*_profile(layers))


@lru_cache(maxsize=32)
def _sweep(rho: tuple[int, ...], d: int) -> tuple[int | None, tuple[CriterionVerdict, ...]]:
    """The sweep for one layer profile, shared by the search's start bound and
    the report's criteria section, which both ask for it on one poset."""
    verdicts: list[CriterionVerdict] = []
    for t in range(d, len(rho) - 1):
        verdicts.append(_alternating(rho, d, t))
        verdicts.extend(_binomial(rho, d, t, k) for k in range(d + 1, t + 2))
    fired = [v.t for v in verdicts if v.fired]
    return (min(fired) if fired else None, tuple(verdicts))
