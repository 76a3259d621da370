"""Squarefree monomials, ideal pairs, and the divisibility poset of I \\ J.

A squarefree monomial in variables x1..xn is stored as an integer bit mask
(bit i set = variable x_{i+1} present). Divisibility is mask inclusion, lcm
is bitwise or, degree is the popcount. Everything downstream (the Stanley
depth solver, the Koszul strands, the layer criteria) takes and returns
masks, in the canonical order stated once here as the integer ``mask_key``:
by degree, then lexicographically on the sorted list of variable indices.
``Monomial`` objects are built only for certificates, witnesses and text.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

MAX_VARS = 24
_HALF = MAX_VARS // 2
_FULL = (1 << MAX_VARS) - 1
# _REVERSED[b] is the _HALF-bit mask b with its bit order reversed
_REVERSED = [0] * (1 << _HALF)
for _b in range(1, 1 << _HALF):
    _REVERSED[_b] = _REVERSED[_b >> 1] >> 1 | (_b & 1) << (_HALF - 1)


class ValidationError(ValueError):
    """An ideal pair violated a constructor invariant."""


class PosetEmpty(ValueError):
    """The set of squarefree monomials in I \\ J is empty."""


class InvariantError(AssertionError):
    """A proved invariant failed: a bug, raised even under ``python -O``."""


def mask_variables(mask: int) -> tuple[int, ...]:
    """1-based variable indices of a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_key(mask: int) -> int:
    """Canonical sort key: degree first, then lex on variable indices.

    Within a degree, the mask holding the least variable where two masks
    differ comes first; with the bit order reversed that variable is the
    highest differing bit, so the complement of the reversal sorts the same
    way as the variable lists.
    """
    reversed_mask = _REVERSED[mask & (1 << _HALF) - 1] << _HALF | _REVERSED[mask >> _HALF]
    return mask.bit_count() << MAX_VARS | _FULL ^ reversed_mask


def submasks(free: int) -> Iterator[int]:
    """Every submask of ``free``, from ``free`` itself down to 0."""
    sub = free
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & free


@dataclass(frozen=True)
class Monomial:
    """A squarefree monomial inside a fixed ambient ring K[x1..xn]."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VARS:
            raise ValidationError(f"ambient variable count {self.n} out of range 0..{MAX_VARS}")
        if self.mask < 0 or self.mask >> self.n:
            raise ValidationError(f"monomial mask {self.mask:#x} does not fit in {self.n} variables")

    @classmethod
    def from_variables(cls, variables, n: int) -> "Monomial":
        mask = 0
        for v in variables:
            if not 1 <= v <= n:
                raise ValidationError(f"variable index {v} out of range 1..{n}")
            if mask >> (v - 1) & 1:
                raise ValidationError(f"variable x{v} repeated; monomials here are squarefree")
            mask |= 1 << (v - 1)
        return cls(mask, n)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def variables(self) -> tuple[int, ...]:
        return mask_variables(self.mask)

    def divides(self, other: "Monomial") -> bool:
        return self.mask & other.mask == self.mask

    def sort_key(self) -> int:
        return mask_key(self.mask)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "*".join(f"x{v}" for v in self.variables)


def minimalize_masks(masks) -> tuple[int, ...]:
    """Minimal generators among ``masks``: drop duplicates and proper multiples."""
    unique = sorted(set(masks), key=mask_key)
    kept: list[int] = []
    for m in unique:
        if not any(g & m == g for g in kept):
            kept.append(m)
    return tuple(kept)


def masks_contain(gen_masks, mask: int) -> bool:
    """Membership of a monomial in the ideal generated by ``gen_masks``."""
    return any(g & mask == g for g in gen_masks)


def degree_masks(n: int, deg: int) -> list[int]:
    """All squarefree masks of the given degree, canonical order."""
    # combinations of increasing variables come out in lex order
    return [sum(1 << v for v in combo) for combo in itertools.combinations(range(n), deg)]


@dataclass(frozen=True)
class IdealPair:
    """A validated pair of squarefree monomial ideals J < I in K[x1..xn].

    Invariants established at construction: both generator sets are minimal,
    J is contained in I, the difference I \\ J is nonempty, and every
    generator of J has degree at least d+1 where d is the least generator
    degree of I. The unit ideal I = S is represented by the single generator
    1 (empty mask, d = 0); J = 0 by an empty generator tuple. The generators
    are held as masks in canonical order.
    """

    n: int
    i_masks: tuple[int, ...]
    j_masks: tuple[int, ...]
    d: int

    @classmethod
    def from_masks(cls, n: int, masks_i, masks_j) -> "IdealPair":
        if not 1 <= n <= MAX_VARS:
            raise ValidationError(f"ambient variable count {n} out of range 1..{MAX_VARS}")
        masks_i, masks_j = tuple(masks_i), tuple(masks_j)
        for m in itertools.chain(masks_i, masks_j):
            if m < 0 or m >> n:
                raise ValidationError(f"generator mask {m:#x} does not fit in {n} variables")
        mi = minimalize_masks(masks_i)
        mj = minimalize_masks(masks_j)
        if not mi:
            raise ValidationError("I has no generators; the pair requires a nonzero ideal I")
        for m in mj:
            if not masks_contain(mi, m):
                raise ValidationError(f"J generator {Monomial(m, n)} lies outside I")
        if all(masks_contain(mj, m) for m in mi):
            raise ValidationError("J equals I; the difference I \\ J is empty")
        d = min(m.bit_count() for m in mi)
        for m in mj:
            if m.bit_count() <= d:
                raise ValidationError(
                    f"J generator {Monomial(m, n)} has degree {m.bit_count()} <= d = {d}; "
                    "J must be generated in degrees >= d+1"
                )
        return cls(n=n, i_masks=mi, j_masks=mj, d=d)

    @classmethod
    def from_variable_lists(cls, n: int, gens_i, gens_j) -> "IdealPair":
        to_mask = lambda vs: Monomial.from_variables(vs, n).mask
        return cls.from_masks(n, [to_mask(g) for g in gens_i], [to_mask(g) for g in gens_j])

    @property
    def gens_i(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(m, self.n) for m in self.i_masks)

    @property
    def gens_j(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(m, self.n) for m in self.j_masks)

    def degree_d_masks(self) -> tuple[int, ...]:
        return tuple(m for m in self.i_masks if m.bit_count() == self.d)

    def extra_masks(self) -> tuple[int, ...]:
        """Generators of I of degree > d (the set E)."""
        return tuple(m for m in self.i_masks if m.bit_count() > self.d)


@dataclass(frozen=True)
class PosetLayers:
    """The divisibility poset of squarefree monomials in I \\ J, layered by degree.

    ``elems`` holds the element masks in canonical order and ``rho[k]`` the
    size of layer k for k in 0..n. Layer k is the index range
    ``start[k]:start[k + 1]`` for k in 0..n+1 (layer n+1 is empty).
    ``up[i]`` lists the offsets, within the next layer, of the elements one
    variable above element i, by increasing variable.
    """

    pair: IdealPair
    elems: tuple[int, ...]
    rho: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.pair.d

    @cached_property
    def start(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate((*self.rho, 0), initial=0))

    @cached_property
    def index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.elems)}

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        index, start = self.index, self.start
        up = []
        for m in self.elems:
            base = start[m.bit_count() + 1]
            up.append(tuple(
                index[m | 1 << v] - base
                for v in range(self.pair.n)
                if not m >> v & 1 and (m | 1 << v) in index
            ))
        return tuple(up)

    def layer_masks(self, degree: int) -> tuple[int, ...]:
        if 0 <= degree < len(self.rho):
            return self.elems[self.start[degree]:self.start[degree + 1]]
        return ()

    @property
    def r(self) -> int:
        return self.rho[self.d]

    @property
    def s(self) -> int:
        return self.rho[self.d + 1] if self.d + 1 < len(self.rho) else 0

    @property
    def q(self) -> int:
        return self.rho[self.d + 2] if self.d + 2 < len(self.rho) else 0


def ideal_masks(ring: int, gen_masks) -> set[int]:
    """The squarefree masks under ``ring`` in the ideal generated by ``gen_masks``.

    Built as a union of superset enumerations over the generators, which
    beats scanning all subsets of ``ring`` when generators have high degree.
    """
    seen: set[int] = set()
    for g in gen_masks:
        if g & ring == g:
            seen.update(g | sub for sub in submasks(ring & ~g))
    return seen


def difference_masks(pair: IdealPair, rings) -> set[int]:
    """The masks of I \\ J that divide some mask in ``rings``."""
    return set().union(*(ideal_masks(r, pair.i_masks) - ideal_masks(r, pair.j_masks) for r in rings))


def poset_masks(pair: IdealPair) -> set[int]:
    """All squarefree monomial masks lying in I \\ J."""
    return difference_masks(pair, ((1 << pair.n) - 1,))


@lru_cache(maxsize=512)
def build_poset(pair: IdealPair) -> PosetLayers:
    """The poset of I \\ J as its element masks in canonical order."""
    elems = tuple(sorted(poset_masks(pair), key=mask_key))
    if not elems:
        raise PosetEmpty("I \\ J contains no squarefree monomial")
    rho = [0] * (pair.n + 1)
    for m in elems:
        rho[m.bit_count()] += 1
    return PosetLayers(pair=pair, elems=elems, rho=tuple(rho))
