"""Reading and writing ideal pair files.

Text format (UTF-8), three lines:

    n = 3
    I = x1*x2, x2*x3
    J = 0

A generator is a product of distinct variables ``x1..xn``; ``1`` denotes the
unit ideal and ``J = 0`` the zero ideal.  Blank lines and ``#`` comments are
allowed.  The JSON alternative is ``{"n": int, "I": [[indices]], "J":
[[indices]]}`` with 1-based variable indices; input starting with ``{`` is
sniffed as JSON.
"""

from __future__ import annotations

import json
import re

from .monomial import IdealPair, mask_variables


class ParseError(ValueError):
    """Malformed ideal file; the message carries the offending line."""


def _parse_generator(token: str, line_no: int) -> list[int]:
    token = token.strip()
    if token == "1":
        return []
    if not token:
        raise ParseError(f"line {line_no}: empty generator")
    factors = token.split("*")
    indices = []
    for f in factors:
        f = f.strip()
        m = re.fullmatch(r"x(\d+)", f)
        if not m:
            raise ParseError(f"line {line_no}: bad factor {f!r} in generator {token!r}")
        indices.append(int(m.group(1)))
    return indices


def _parse_gen_list(rhs: str, line_no: int) -> list[list[int]]:
    rhs = rhs.strip()
    if rhs == "0":
        return []
    return [_parse_generator(tok, line_no) for tok in rhs.split(",")]


def parse_ideal_text(text: str) -> tuple[IdealPair, list[str]]:
    """Parse the three-line text format; returns (pair, warnings).

    A warning is emitted when a generator list was not minimal (the pair is
    built from the minimalized set).
    """
    fields: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected '<name> = <value>', got {raw!r}")
        name, _, rhs = line.partition("=")
        name = name.strip()
        if name == "n":
            try:
                fields["n"] = int(rhs.strip())
            except ValueError:
                raise ParseError(f"line {line_no}: n must be an integer") from None
        elif name in ("I", "J"):
            fields[name] = _parse_gen_list(rhs, line_no)
        else:
            raise ParseError(f"line {line_no}: unknown field {name!r}")
    for required in ("n", "I", "J"):
        if required not in fields:
            raise ParseError(f"missing field {required!r}")
    return _build(fields["n"], fields["I"], fields["J"])


def parse_ideal_json(text: str) -> tuple[IdealPair, list[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON input must be an object")
    for key in ("n", "I", "J"):
        if key not in doc:
            raise ParseError(f"missing JSON field {key!r}")
    n, gi, gj = doc["n"], doc["I"], doc["J"]
    if not isinstance(n, int):
        raise ParseError("field 'n' must be an integer")
    for name, lst in (("I", gi), ("J", gj)):
        if not isinstance(lst, list) or not all(
            isinstance(g, list) and all(isinstance(v, int) for v in g) for g in lst
        ):
            raise ParseError(f"field {name!r} must be a list of index lists")
    return _build(n, gi, gj)


def _build(n, gens_i, gens_j) -> tuple[IdealPair, list[str]]:
    pair = IdealPair.from_variable_lists(n, gens_i, gens_j)
    warnings = []
    # the pair holds the minimal generators, so a shorter tuple means redundancy
    if len(pair.i_masks) != len(gens_i):
        warnings.append("I generators were not minimal; redundant ones dropped")
    if len(pair.j_masks) != len(gens_j):
        warnings.append("J generators were not minimal; redundant ones dropped")
    return pair, warnings


def parse_ideal(source: str) -> tuple[IdealPair, list[str]]:
    """Parse text that is either the text format or its JSON alternative."""
    if source.lstrip().startswith("{"):
        return parse_ideal_json(source)
    return parse_ideal_text(source)


def load_ideal(path: str) -> tuple[IdealPair, list[str]]:
    with open(path, encoding="utf-8") as fh:
        return parse_ideal(fh.read())


def pair_to_text(pair: IdealPair) -> str:
    gi = ", ".join(str(g) for g in pair.gens_i)
    gj = ", ".join(str(g) for g in pair.gens_j) if pair.gens_j else "0"
    return f"n = {pair.n}\nI = {gi}\nJ = {gj}\n"


def pair_to_dict(pair: IdealPair) -> dict:
    return {
        "n": pair.n,
        "I": [list(mask_variables(m)) for m in pair.i_masks],
        "J": [list(mask_variables(m)) for m in pair.j_masks],
    }


def partition_to_dict(part) -> dict:
    """JSON mirror of a partition certificate, with index arrays."""
    return {
        "sdepth": part.sdepth_value,
        "intervals": [
            {"lo": list(iv.lo.variables), "hi": list(iv.hi.variables)}
            for iv in part.intervals
        ],
    }


def partition_to_text(part) -> str:
    """One interval per line: [x1*x3, x1*x3*x4]."""
    return "\n".join(str(iv) for iv in part.intervals) + "\n"
