"""Numeric depth bounds from layer counts of the divisibility poset.

Two families of integer inequalities on the degree profile rho of I \\ J
certify an upper bound on depth over every coefficient field at once:

* the alternating-sum test at level t compares rho_{t+1} against
  alpha_t = sum_{i=0}^{t-d} (-1)^{t-d+i} rho_{d+i}, and
* the binomial-sum test at (t, k) compares rho_k against
  sum_{j=d}^{k-1} (-1)^{k-j+1} C(t+1-j, k-j) rho_j.

A fired test means depth(I/J) <= t for every field; if depth >= t is known
independently the bound pins depth = t.  Proof: suppose depth(I/J) >= t+1
over a field K.  Extending K to an infinite field changes no depth, and
then t+1 general linear forms are a regular sequence on I/J.  A monomial
lies in I \\ J exactly when its support does, and the monomials with one
support of degree k contribute x^k/(1-x)^k, so the Hilbert series of I/J
is sum_k rho_k x^k/(1-x)^k.  Dividing out the regular sequence leaves the
series (1-x)^(t+1) sum_k rho_k x^k/(1-x)^k, whose coefficients are
nonnegative.  For k <= t+1 its coefficient of x^k is

    sum_{j=d}^{k} (-1)^(k-j) C(t+1-j, k-j) rho_j,

which is rho_k minus the right-hand side of the binomial test at (t, k).  A
fired test makes that coefficient negative, a contradiction.  The
alternating test at t is the binomial test at k = t+1.  (Bruns-Herzog,
*Cohen-Macaulay Rings*, Ch. 4.)  Everything here is exact integer
arithmetic, so verdicts cannot depend on a characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .monomial import InvariantError, PosetLayers


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one inequality test.

    ``fired`` holds exactly when ``lhs < rhs``.  ``k`` is None for the
    alternating kind.
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


def _binomial(rho: tuple[int, ...], d: int, t: int, k: int) -> CriterionVerdict:
    """Test rho_k against the binomial-weighted alternating sum at (t, k)."""
    lhs = rho[k]
    rhs = sum((-1) ** (k - j + 1) * math.comb(t + 1 - j, k - j) * rho[j] for j in range(d, k))
    return CriterionVerdict("binomial", t, k, lhs, rhs, lhs < rhs)


def best_upper_bound(layers: PosetLayers) -> tuple[int | None, tuple[CriterionVerdict, ...]]:
    """Sweep all admissible tests; return (minimal fired t or None, all verdicts)."""
    return _sweep(layers.rho, layers.d)


@lru_cache(maxsize=32)
def _sweep(rho: tuple[int, ...], d: int) -> tuple[int | None, tuple[CriterionVerdict, ...]]:
    """The sweep over the admissible d <= t < n, d+1 <= k <= t+1 for one layer
    profile, shared by the search's start bound and the report's criteria
    section, which both ask for it on one poset."""
    verdicts: list[CriterionVerdict] = []
    for t in range(d, len(rho) - 1):
        row = [_binomial(rho, d, t, k) for k in range(d + 1, t + 2)]
        verdicts.append(replace(row[-1], kind="alternating", k=None))
        verdicts.extend(row)
    fired = [v.t for v in verdicts if v.fired]
    return (min(fired) if fired else None, tuple(verdicts))
