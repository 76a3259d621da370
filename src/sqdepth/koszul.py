"""Depth of I/J from the multigraded strands of its Koszul complex.

The Koszul complex of x1..xn over the module I/J splits into strands, one
per multidegree. For a squarefree multidegree sigma the strand in
homological index i has basis {tau subset of sigma : |tau| = i and the
monomial with support sigma \\ tau lies in I \\ J}, with boundary

    d(e_tau) = sum over j in tau of sign(j, tau) * e_(tau minus j),

where a summand is dropped when the shifted monomial falls into J and
sign(j, tau) = (-1)^(position of j in the sorted tau). Then

    depth(I/J) = n - max{ i : H_i(strand) != 0 for some sigma }.

Homology of squarefree modules is concentrated in squarefree multidegrees.
Among those, only the lcm lattices can carry homology: the long exact
sequence of 0 -> J -> I -> I/J -> 0 shows that Tor_i(I/J)_sigma != 0 forces
Tor_i(I)_sigma != 0 or Tor_(i-1)(J)_sigma != 0, and the multigraded Betti
numbers of a monomial ideal sit on its lcm lattice, the lcms of nonempty
sets of generators (Gasharov-Peeva-Welker 1999; Miller-Sturmfels 2005,
Ch. 1). So the scan visits only sigma in L_I union L_J. For n <= 6 the
paranoid mode re-verifies both claims: no homology at any multidegree with
one squared variable, and none at a squarefree sigma off the lattices.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .linalg import is_prime, rank_char0, rank_mod_p
from .monomial import IdealPair, InvariantError, Monomial, difference_masks, mask_key, poset_masks


class StrandInvariantError(InvariantError):
    """A constructed strand failed boundary(boundary) = 0."""


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, identified by its characteristic (0 or a prime)."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        if self.characteristic != 0 and not is_prime(self.characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {self.characteristic}")

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


DEFAULT_FIELDS = (FieldSpec(0), FieldSpec(2), FieldSpec(3))


def check_paranoid_size(pair: IdealPair) -> None:
    """The paranoid check scans all n * 2^n multidegrees; refuse it above n = 6."""
    if pair.n > 6:
        raise ValueError("paranoid concentration check is limited to n <= 6")


def _strand_spaces(members, sigma: int, squared: int = 0):
    """Bases and integer boundary matrices of one multidegree strand.

    The multidegree is sigma plus ``squared``, a mask of variables of sigma
    whose exponent is 2; it is nonzero only in the paranoid concentration
    check. tau is a basis element when the monomial of multidegree
    sigma + squared - tau lies in I \\ J, that is when its support
    ``(sigma ^ tau) | squared`` is in ``members``, masks of I \\ J that
    include all those under sigma. Returns (bases, boundaries) where bases[i]
    lists the tau masks in canonical order and boundaries[i] is the matrix of
    d_i : C_i -> C_(i-1), rows indexed by bases[i-1].
    """
    support = [v for v in range(sigma.bit_length()) if sigma >> v & 1]
    top = len(support)
    bases: list[list[int]] = [[] for _ in range(top + 1)]
    for size in range(top + 1):
        for combo in itertools.combinations(support, size):
            tau = 0
            for v in combo:
                tau |= 1 << v
            if (sigma ^ tau) | squared in members:
                bases[size].append(tau)

    boundaries: list[list[list[int]]] = [[]]
    for i in range(1, top + 1):
        rows = {t: r for r, t in enumerate(bases[i - 1])}
        matrix = [[0] * len(bases[i]) for _ in rows]
        for col, tau in enumerate(bases[i]):
            sign = 1
            for v in support:
                if tau >> v & 1:
                    smaller = tau & ~(1 << v)
                    r = rows.get(smaller)
                    if r is not None:
                        matrix[r][col] = sign
                    sign = -sign
        boundaries.append(matrix)
    return [tuple(b) for b in bases], boundaries


def _check_complex(bases, boundaries) -> None:
    """Raise StrandInvariantError unless every d_(i-1) d_i is the zero matrix.

    The product is formed column by column from the nonzero entries only;
    every entry of it is still checked.
    """
    columns = [
        [[(r, x) for r, row in enumerate(matrix) if (x := row[c])] for c in range(len(bases[i]))]
        for i, matrix in enumerate(boundaries)
    ]
    for i in range(2, len(boundaries)):
        inner = columns[i - 1]
        for c, column in enumerate(columns[i]):
            acc: dict[int, int] = {}
            for k, x in column:
                for r, y in inner[k]:
                    acc[r] = acc.get(r, 0) + x * y
            nonzero = [r for r, v in acc.items() if v]
            if nonzero:
                raise StrandInvariantError(
                    f"d_{i-1} after d_{i} is nonzero at ({min(nonzero)}, {c})"
                )


@dataclass(frozen=True)
class KoszulStrand:
    """One multidegree strand with its homology over a chosen field."""

    pair: IdealPair
    sigma: Monomial
    field: FieldSpec
    bases: tuple[tuple[int, ...], ...]
    homology: tuple[int, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def _homology_dims(bases, boundaries, characteristic: int) -> tuple[int, ...]:
    ranks = [0] * (len(bases) + 1)
    for i, m in enumerate(boundaries):
        if m and m[0]:
            ranks[i] = rank_char0(m) if characteristic == 0 else rank_mod_p(m, characteristic)
    return tuple(len(b) - ranks[i] - ranks[i + 1] for i, b in enumerate(bases))


def build_strand(pair: IdealPair, sigma: Monomial, field: FieldSpec = FieldSpec(0)) -> KoszulStrand:
    """The strand at a squarefree multidegree, with boundary^2 = 0 verified."""
    bases, boundaries = _strand_spaces(difference_masks(pair, (sigma.mask,)), sigma.mask)
    _check_complex(bases, boundaries)
    return KoszulStrand(
        pair=pair,
        sigma=sigma,
        field=field,
        bases=tuple(bases),
        homology=_homology_dims(bases, boundaries, field.characteristic),
    )


@dataclass(frozen=True)
class DepthResult:
    depth: int
    proj_dim: int
    witness_sigma: Monomial
    witness_index: int
    field: FieldSpec


def _join_closure(masks) -> set[int]:
    """The lcm lattice of the generators: every OR of a nonempty subset."""
    closure: set[int] = set()
    for g in masks:
        closure |= {g | m for m in closure}
        closure.add(g)
    return closure


def _scan_masks(pair: IdealPair) -> list[int]:
    """L_I union L_J, largest support first, canonical within a size."""
    lattice = _join_closure(pair.i_masks) | _join_closure(pair.j_masks)
    return sorted(lattice, key=lambda m: (-m.bit_count(), mask_key(m)))


def depth_profile(
    pair: IdealPair, fields=DEFAULT_FIELDS, paranoid: bool = False
) -> dict[int, DepthResult]:
    """Depth of I/J over each requested field, sharing strand construction.

    Strands at the sigma of L_I union L_J (see the module docstring) are
    scanned by descending support size, so once some field has a
    nonvanishing H_i no later strand (all of smaller support) can raise that
    field's record; a field also stops at the proven floor i = n - d. The
    scan ends when every requested field is settled.
    """
    if paranoid:
        check_paranoid_size(pair)
    fields = tuple(fields)
    n, d = pair.n, pair.d
    best: dict[int, tuple[int, Monomial]] = {}
    open_chars = {f.characteristic for f in fields}
    cap = n - d
    # Every scanned sigma divides the top of L_I or of L_J: read I \ J under those.
    top_i = functools.reduce(operator.or_, pair.i_masks)
    top_j = functools.reduce(operator.or_, pair.j_masks, 0)
    members = difference_masks(pair, (top_i, top_j))
    for mask in _scan_masks(pair):
        size = mask.bit_count()
        # A strand on |sigma| variables has homology only in indices <= |sigma|,
        # so once every still-open field holds a witness at index >= size no
        # smaller support can improve anything.
        if all(c in best and best[c][0] >= size for c in open_chars):
            break
        bases, boundaries = _strand_spaces(members, mask)
        if all(not b for b in bases):
            continue
        _check_complex(bases, boundaries)
        for char in sorted(open_chars):
            if char in best and best[char][0] >= size:
                continue
            hom = _homology_dims(bases, boundaries, char)
            for i in range(len(hom) - 1, -1, -1):
                if hom[i] > 0:
                    if char not in best or i > best[char][0]:
                        best[char] = (i, Monomial(mask, n))
                    break
        for char in list(open_chars):
            if char in best and best[char][0] >= cap:
                open_chars.discard(char)
    if paranoid:
        _paranoid_concentration(pair, fields)
    out: dict[int, DepthResult] = {}
    for f in fields:
        proj, sigma = best[f.characteristic]
        out[f.characteristic] = DepthResult(
            depth=n - proj, proj_dim=proj, witness_sigma=sigma, witness_index=proj, field=f
        )
    return out


def depth(
    pair: IdealPair, field: FieldSpec = FieldSpec(0), paranoid: bool = False
) -> DepthResult:
    return depth_profile(pair, (field,), paranoid=paranoid)[field.characteristic]


def _paranoid_concentration(pair: IdealPair, fields) -> None:
    """Check that homology vanishes at every multidegree the scan skips.

    Those are the multidegrees with one squared variable and the squarefree
    multidegrees off the lcm lattices L_I and L_J.
    """
    n = pair.n
    members = poset_masks(pair)
    lattice = set(_scan_masks(pair))
    skipped = [
        (mask, 1 << v, "non-squarefree multidegree")
        for mask in range(1 << n)
        for v in range(n)
        if mask >> v & 1
    ]
    skipped += [
        (mask, 0, "squarefree multidegree off the lcm lattices")
        for mask in range(1 << n)
        if mask not in lattice
    ]
    for sigma, squared, where in skipped:
        bases, boundaries = _strand_spaces(members, sigma, squared)
        if all(not b for b in bases):
            continue
        _check_complex(bases, boundaries)
        for f in fields:
            hom = _homology_dims(bases, boundaries, f.characteristic)
            if any(hom):
                degree = "*".join(
                    f"x{v + 1}" + "^2" * (squared >> v & 1) for v in range(n) if sigma >> v & 1
                )
                raise StrandInvariantError(
                    f"nonzero homology {hom} at {where} {degree or 1} over {f}"
                )
