"""The instance corpora of the acceptance sweeps, each listed once per process.

Plain cached functions rather than fixtures, so that the digest
regeneration line in ``test_digests.py`` can call them without pytest:

* ``small_pairs``: every pair with n <= 4, in ``enumerate_all_pairs`` order;
* ``canonical_pairs``: every canonical pair with n <= 5;
* ``n5_slice``: a seeded 5% of the canonical n = 5 pairs;
* ``small_results``: every engine, and the brute-force sdepth oracle, run
  once on each small pair.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from oracles import naive_sdepth

from sqdepth.criteria import CriterionVerdict, best_upper_bound
from sqdepth.koszul import DepthResult, depth_profile
from sqdepth.lab import enumerate_all_pairs
from sqdepth.monomial import IdealPair, build_poset
from sqdepth.partition import SdepthResult, sdepth_exact

SEED = 20260819


@functools.cache
def small_pairs() -> tuple[IdealPair, ...]:
    return tuple(p for n in (1, 2, 3, 4) for p in enumerate_all_pairs(n))


@functools.cache
def canonical_pairs() -> tuple[IdealPair, ...]:
    return tuple(p for n in (1, 2, 3, 4, 5) for p in enumerate_all_pairs(n, symmetry=True))


@functools.cache
def n5_slice() -> tuple[IdealPair, ...]:
    rng = random.Random(SEED)
    return tuple(p for p in canonical_pairs() if p.n == 5 and rng.random() < 0.05)


class Result(NamedTuple):
    pair: IdealPair
    sdepth: SdepthResult
    profile: dict[int, DepthResult]
    bound: int | None
    verdicts: tuple[CriterionVerdict, ...]
    naive: int | None


def engine_results(pairs, oracle: bool = False) -> tuple[Result, ...]:
    """sdepth, the depth profile over (0, 2, 3) and the layer-count criteria
    of each pair, with ``naive_sdepth`` too when ``oracle`` is set."""
    return tuple(
        Result(
            p,
            sdepth_exact(p),
            depth_profile(p),
            *best_upper_bound(build_poset(p)),
            naive_sdepth(p) if oracle else None,
        )
        for p in pairs
    )


@functools.cache
def small_results() -> tuple[Result, ...]:
    return engine_results(small_pairs(), oracle=True)
