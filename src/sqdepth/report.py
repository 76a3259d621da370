"""Analysis reports: one JSON document per run, rendered to text separately.

The JSON document is the single source of truth; ``render_text`` and
``render_hunt_text`` are pure functions of it.  An exhausted sdepth budget
and an lcm classification that does not apply carry an ``error`` slot in
their section; an engine fault raises.  ``elapsed_ms`` stays null unless
timing was requested, keeping equal-seed reports byte-identical.
"""

from __future__ import annotations

import json
import time
from importlib import resources

from . import __version__
from .criteria import best_upper_bound
from .ideal_io import pair_to_dict, partition_to_dict
from .koszul import DEFAULT_FIELDS, FieldSpec
from .lab import STATEMENTS, Analysis, HypothesisMismatch
from .lemmas import NotApplicable, classify_lcm_configuration
from .monomial import IdealPair, build_poset
from .partition import DEFAULT_NODE_BUDGET, BudgetExhausted, sdepth_decision

SCHEMA_NAME = "sqdepth-report/1"
DEFAULT_CHARS = tuple(f.characteristic for f in DEFAULT_FIELDS)


def _error_slot(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# section serializers: one per report section, shared by every report kind


def _head(kind: str, pair: IdealPair) -> dict:
    return {"schema": SCHEMA_NAME, "kind": kind, "instance": {**pair_to_dict(pair), "d": pair.d}}


def _poset_section(layers) -> dict:
    return {"rho": list(layers.rho), "r": layers.r, "s": layers.s, "q": layers.q}


def _sdepth_section(analysis: Analysis) -> dict:
    """The exact value with its certificate, or the bracket of an exhausted budget."""
    try:
        res = analysis.sdepth
    except BudgetExhausted as exc:
        return _budget_slot(exc)
    cert = partition_to_dict(res.certificate)
    return {"value": res.value, "nodes": res.nodes, "certificate": cert}


def _budget_slot(exc: BudgetExhausted) -> dict:
    bracket = {"lower_bound": exc.lower_bound, "upper_bound": exc.upper_bound, "nodes": exc.nodes}
    return {**_error_slot(exc), **bracket}


def _depth_section(analysis: Analysis) -> dict:
    return {
        str(c): {
            "depth": r.depth,
            "proj_dim": r.proj_dim,
            "witness": {"sigma": list(r.witness_sigma.variables), "index": r.witness_index},
        }
        for c, r in analysis.profile.items()
    }


def _criteria_section(layers) -> dict:
    bound, verdicts = best_upper_bound(layers)
    return {
        "bound": bound,
        "verdicts": [
            {"kind": v.kind, "t": v.t, "k": v.k, "lhs": v.lhs, "rhs": v.rhs, "fired": v.fired}
            for v in verdicts
        ],
    }


def _lcm_section(pair: IdealPair) -> dict:
    try:
        conf = classify_lcm_configuration(pair)
    except NotApplicable as exc:
        return _error_slot(exc)
    return {
        "label": conf.label,
        "s": conf.s,
        "q": conf.q,
        "q_pair": {f"{i},{j}": v for (i, j), v in sorted(conf.q_pair.items())},
        "checks": [
            {
                "description": c.description,
                "observed": c.observed,
                "required": c.required,
                "holds": c.holds,
            }
            for c in conf.checks
        ],
    }


_SKIP_REASONS = {"floor": "sdepth above the floor", "step": "sdepth not d+1"}


def _theorem_slots(analysis: Analysis, report: dict) -> dict:
    """Floor/step verdicts read off the results the other sections already hold."""
    if "error" in report["sdepth"]:
        return {
            name: {"status": "skip", "reason": "engine result unavailable"}
            for name in _SKIP_REASONS
        }
    out: dict = {}
    for name, reason in _SKIP_REASONS.items():
        try:
            result = STATEMENTS[name](analysis)
        except HypothesisMismatch as exc:
            out[name] = {"status": "skip", "reason": f"shape mismatch: {exc}"}
            continue
        slot = {"status": result.status}
        if result.status == "skip":
            slot["reason"] = reason
        if "shape" in result.details:
            slot["shape"] = result.details["shape"]
        out[name] = slot
    return out


def _meta(timing: bool, t0: float, **extra) -> dict:
    return {
        "version": __version__,
        **extra,
        "elapsed_ms": int((time.monotonic() - t0) * 1000) if timing else None,
    }


# ---------------------------------------------------------------------------
# reports


def build_analysis_report(
    pair: IdealPair,
    chars: tuple[int, ...] = DEFAULT_CHARS,
    budget: int | None = DEFAULT_NODE_BUDGET,
    paranoid: bool = False,
    timing: bool = False,
) -> dict:
    """Run every engine on the pair once and assemble the JSON analysis document.

    An exhausted budget becomes the sdepth section's error slot. A depth
    engine fault, such as a failed paranoid check, raises as it does from
    ``build_depth_report``; a paranoid request that ``Analysis`` refuses
    raises before any engine runs.
    """
    t0 = time.monotonic()
    analysis = Analysis(pair, tuple(FieldSpec(c) for c in chars), budget, paranoid)
    report = _head("analysis", pair)
    layers = build_poset(pair)
    report["poset"] = _poset_section(layers)
    report["sdepth"] = _sdepth_section(analysis)
    report["depth"] = _depth_section(analysis)
    report["criteria"] = _criteria_section(layers)
    report["lcm_configuration"] = _lcm_section(pair)
    report["theorems"] = _theorem_slots(analysis, report)
    report["meta"] = _meta(timing, t0, chars=list(chars), budget=budget)
    return report


def wrap_hunt_report(hunt: dict) -> dict:
    return {"schema": SCHEMA_NAME, "kind": "hunt", **hunt, "version": __version__}


def build_sdepth_report(
    pair: IdealPair,
    target: int | None = None,
    budget: int | None = DEFAULT_NODE_BUDGET,
    timing: bool = False,
) -> dict:
    """Exact sdepth with certificate, or a single target decision."""
    t0 = time.monotonic()
    report = _head("sdepth", pair)
    if target is None:
        report["sdepth"] = _sdepth_section(Analysis(pair, budget=budget))
    else:
        try:
            part = sdepth_decision(pair, target, budget=budget)
        except BudgetExhausted as exc:
            report["sdepth"] = _budget_slot(exc)
        else:
            report["sdepth"] = {
                "target": target,
                "satisfiable": part is not None,
                "certificate": partition_to_dict(part) if part is not None else None,
            }
    report["meta"] = _meta(timing, t0, budget=budget)
    return report


def build_depth_report(
    pair: IdealPair,
    chars: tuple[int, ...] = DEFAULT_CHARS,
    paranoid: bool = False,
    timing: bool = False,
) -> dict:
    t0 = time.monotonic()
    analysis = Analysis(pair, tuple(FieldSpec(c) for c in chars), paranoid=paranoid)
    return {
        **_head("depth", pair),
        "depth": _depth_section(analysis),
        "meta": _meta(timing, t0, chars=list(chars)),
    }


def build_criteria_report(pair: IdealPair, timing: bool = False) -> dict:
    t0 = time.monotonic()
    layers = build_poset(pair)
    return {
        **_head("criteria", pair),
        "poset": _poset_section(layers),
        "criteria": _criteria_section(layers),
        "meta": _meta(timing, t0),
    }


# ---------------------------------------------------------------------------
# text rendering (pure functions of the JSON document)


def _format_gens(gens: list) -> str:
    if not gens:
        return "0"
    return ", ".join("1" if not g else "*".join(f"x{v}" for v in g) for g in gens)


def _instance_lines(inst: dict) -> list[str]:
    return [
        f"instance   n = {inst['n']}, d = {inst['d']}",
        f"  I = {_format_gens(inst['I'])}",
        f"  J = {_format_gens(inst['J'])}",
    ]


def _poset_lines(poset: dict) -> list[str]:
    return [
        f"poset      rho = {poset['rho']}  (r = {poset['r']}, s = {poset['s']}, q = {poset['q']})"
    ]


def _certificate_lines(cert: dict) -> list[str]:
    return [
        f"  [{_format_gens([iv['lo']])}, {_format_gens([iv['hi']])}]" for iv in cert["intervals"]
    ]


def _sdepth_lines(sd: dict, show_certificate: bool = True) -> list[str]:
    if "error" in sd:
        lines = [f"sdepth     {sd['error']}"]
        if sd.get("lower_bound") is not None or sd.get("upper_bound") is not None:
            lines.append(f"  bounds: [{sd.get('lower_bound')}, {sd.get('upper_bound')}]")
        return lines
    if "target" in sd:
        verdict = "achievable" if sd["satisfiable"] else "not achievable"
        lines = [f"sdepth     target {sd['target']}: {verdict}"]
        if show_certificate and sd["certificate"] is not None:
            lines += _certificate_lines(sd["certificate"])
        return lines
    lines = [f"sdepth     {sd['value']}  ({sd['nodes']} nodes)"]
    if show_certificate:
        lines += _certificate_lines(sd["certificate"])
    return lines


def _depth_lines(dep: dict, witness: bool = True) -> list[str]:
    lines = []
    for char, entry in dep.items():
        line = f"depth      char {char}: {entry['depth']}"
        if witness:
            sigma = _format_gens([entry["witness"]["sigma"]])
            line += f"  (H_{entry['witness']['index']} at sigma = {sigma})"
        lines.append(line)
    return lines


def _criteria_lines(crit: dict) -> list[str]:
    bound = crit["bound"]
    lines = [f"criteria   upper bound: {bound if bound is not None else 'none fired'}"]
    for v in crit["verdicts"]:
        where = f"t={v['t']}" + (f", k={v['k']}" if v["k"] is not None else "")
        fired = "FIRED" if v["fired"] else "quiet"
        lines.append(f"  {v['kind']:<11} {where:<12} lhs={v['lhs']} rhs={v['rhs']}  {fired}")
    return lines


def _lcm_lines(conf: dict) -> list[str]:
    if "error" in conf:
        return [f"lcm class  {conf['error']}"]
    lines = [f"lcm class  {conf['label']}  (s = {conf['s']}, q = {conf['q']})"]
    for c in conf["checks"]:
        mark = "ok " if c["holds"] else "BAD"
        lines.append(
            f"  {mark} {c['description']}  (observed {c['observed']}, required {c['required']})"
        )
    return lines


def _theorem_lines(theorems: dict) -> list[str]:
    lines = []
    for name in ("floor", "step"):
        entry = theorems[name]
        extra = f"  ({entry['reason']})" if "reason" in entry else ""
        lines.append(f"theorem    {name}: {entry['status']}{extra}")
    return lines


def _meta_line(meta: dict) -> str:
    elapsed = f"{meta['elapsed_ms']} ms" if meta["elapsed_ms"] is not None else "untimed"
    parts = [f"version {meta['version']}"]
    if "chars" in meta:
        parts.append(f"chars {meta['chars']}")
    parts.append(elapsed)
    return "meta       " + ", ".join(parts)


def render_text(report: dict, certificate: bool = True, witness: bool = True) -> str:
    """Text of a single-instance report: the sections it holds, in one fixed order."""
    sections = (
        ("poset", _poset_lines),
        ("sdepth", lambda sd: _sdepth_lines(sd, show_certificate=certificate)),
        ("depth", lambda dep: _depth_lines(dep, witness=witness)),
        ("criteria", _criteria_lines),
        ("lcm_configuration", _lcm_lines),
        ("theorems", _theorem_lines),
    )
    lines = _instance_lines(report["instance"])
    for key, render in sections:
        if key in report:
            lines += render(report[key])
    lines.append(_meta_line(report["meta"]))
    return "\n".join(lines) + "\n"


def render_hunt_text(report: dict) -> str:
    lines = []
    fam = report["family"]
    lines.append(
        "family     n = {n}, d = {d}, k = {k}, with_e = {with_e}, "
        "J policy = {j_policy}, symmetry = {symmetry_reduction}".format(**fam)
    )
    lines.append(f"check      {report['check']}  (fields: {', '.join(report['fields'])})")
    counts = report["counts"]
    lines.append(
        f"counts     pass = {counts['pass']}, fail = {counts['fail']}, skip = {counts['skip']}"
    )
    for rec in report["failures"]:
        inst = rec["instance"]
        lines.append(
            f"  FAIL n = {inst['n']}, I = {_format_gens(inst['I'])}, J = {_format_gens(inst['J'])}"
        )
        det = rec["details"]
        if "sdepth" in det:
            lines.append(f"       sdepth = {det['sdepth']}")
        if "depths" in det:
            lines.append(f"       depths = {det['depths']}")
    lines.append(f"seed       {report['seed']}")
    elapsed = report["elapsed_ms"]
    lines.append(f"elapsed    {str(elapsed) + ' ms' if elapsed is not None else 'untimed'}")
    return "\n".join(lines) + "\n"


def load_schema() -> dict:
    with resources.files("sqdepth").joinpath("report_schema.json").open(encoding="utf-8") as fh:
        return json.load(fh)
