"""Scenario pipelines: configuration parsing, per-tag verification runs,
and deterministic report emission.

A scenario names a theorem tag, a domain/grid, family or boundary data,
and tolerances.  Running it executes the tag's pipeline (construct or
solve, transform, certify), writes a JSON report plus CSV dumps, and
returns exit status 0 only if every check for the tag passes.

A tag is one :data:`TAGS` entry: its pipeline, the CLI subcommand that
runs it, its default domain, and the config keys it cannot run without.
"""

from __future__ import annotations

import ast
import configparser
import json
import math
import operator
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import angular_ode, elliptic, exact, fields, rigidity
from .domain import LogPolarGrid, build_grid, make_sector
from .errors import (ConfigError, GridError, GridMismatch, InvalidRadii, NoConvergence,
                     ParameterDomain, PipelineFailure, SectorflowError)
from .exact import FamilyKind

_EXPR_NAMES = {"pi": math.pi, "e": math.e, "inf": math.inf}
_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
#: largest |exponent| a config expression may raise to
_MAX_EXPONENT = 1024


def _eval_expr(node) -> float:
    """Value of a whitelisted arithmetic expression node."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _EXPR_NAMES:
        return _EXPR_NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_expr(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        left, right = _eval_expr(node.left), _eval_expr(node.right)
        if isinstance(node.op, ast.Pow) and not abs(right) <= _MAX_EXPONENT:
            raise ValueError(f"exponent {right!r} exceeds {_MAX_EXPONENT}")
        return _EXPR_OPS[type(node.op)](left, right)
    raise ValueError(f"{type(node).__name__} is not allowed")


def _num(value) -> float:
    """Parse a numeric config value: a number, or arithmetic (+ - * / **,
    unary minus) on numbers and pi/e/inf.  The text is never executed."""
    text = str(value)
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return float(_eval_expr(ast.parse(text.strip(), mode="eval").body))
    # the parser signals too-deep nesting with MemoryError or RecursionError
    except (SyntaxError, ValueError, TypeError, ArithmeticError,
            RecursionError, MemoryError) as exc:
        raise ConfigError(f"cannot parse numeric value {text!r}: {exc}")


def _finite(value) -> float:
    """:func:`_num` for every value but the domain radii, the only ones
    that may be infinite: nan or +-inf is a ConfigError."""
    x = _num(value)
    if not math.isfinite(x):
        raise ConfigError(f"numeric value {str(value)!r} is not finite")
    return x


def _int(value) -> int:
    """Parse an integer config value; a fraction is a ConfigError."""
    try:
        return int(str(value))
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}")


@dataclass
class Scenario:
    """Validated scenario configuration."""

    name: str
    tag: str
    domain: dict = dc_field(default_factory=dict)
    grid: dict = dc_field(default_factory=dict)
    family: dict = dc_field(default_factory=dict)
    solver: dict = dc_field(default_factory=dict)
    ode: dict = dc_field(default_factory=dict)
    slide: dict = dc_field(default_factory=dict)
    verify: dict = dc_field(default_factory=dict)


_SECTIONS = ("domain", "grid", "family", "solver", "ode", "slide", "verify")


@dataclass(frozen=True)
class TagSpec:
    """What a scenario tag is: its pipeline, the CLI subcommand that runs
    it, its default (a, b, theta0), whether it must run on the annulus
    a = 1, b = 2, and the (section, key) pairs it needs non-empty."""

    pipeline: Callable
    subcommand: str
    domain: tuple = (1.0, 2.0, 1.0)
    unit_annulus: bool = False
    requires: tuple = ()


def parse_config(path: str | Path) -> Scenario:
    """Read an INI scenario file into a Scenario: a [scenario] section with
    the tag (and an optional name), plus any of the sections in _SECTIONS.
    Any other section, or text that is not INI, is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"invalid config: {exc}")
    unknown = [name for name in cp.sections() if name not in ("scenario", *_SECTIONS)]
    if unknown:
        raise ConfigError(f"unknown config section [{unknown[0]}]")
    meta = dict(cp["scenario"]) if cp.has_section("scenario") else {}
    tag = meta.get("tag")
    if tag not in TAGS:
        raise ConfigError(f"unknown or missing scenario tag {tag!r}")
    scn = Scenario(name=meta.get("name", tag), tag=tag,
                   **{k: dict(cp[k]) for k in _SECTIONS if cp.has_section(k)})
    _validate(scn)
    return scn


def _validate(scn: Scenario):
    spec = TAGS[scn.tag]
    a, b, theta0 = _domain_values(scn)
    if spec.unit_annulus and not (a == 1.0 and b == 2.0):
        raise ConfigError(
            f"tag {scn.tag} runs on the annulus a=1, b=2 (got a={a}, b={b})"
        )
    for section, key in spec.requires:
        if not str(getattr(scn, section).get(key, "")).strip():
            raise ConfigError(f"{scn.tag} needs [{section}] {key}")
    if not (0.0 < theta0 <= 2.0 * math.pi):
        raise ConfigError(f"theta0 must lie in (0, 2*pi], got {theta0}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _recovery_summary(rec: rigidity.GRecovery) -> dict:
    return {"single_valued_defect": rec.single_valued_defect, "fits": rec.fits,
            "fit": rec.fit, "n_bins": len(rec.z_samples)}


def _check(name, value, threshold, ok=None):
    if ok is None:
        ok = bool(value <= threshold)
    return {"name": name, "value": _jsonable(value), "threshold": _jsonable(threshold),
            "passed": bool(ok)}


def _domain_values(scn: Scenario) -> tuple[float, float, float]:
    """(a, b, theta0) from [domain], defaulting to the tag's domain."""
    return tuple(
        _num(scn.domain.get(key, default))
        for key, default in zip(("a", "b", "theta0"), TAGS[scn.tag].domain)
    )


def _domain_grid(scn: Scenario):
    """The domain and its grid; [grid] passes only the s-limits it sets.
    Radii or a grid the domain rules out are a ConfigError."""
    n_s = _int(scn.grid.get("n_s", 64))
    n_t = _int(scn.grid.get("n_theta", 64))
    limits = {key: _finite(scn.grid[key]) for key in ("s_min", "s_max") if key in scn.grid}
    try:
        dom = make_sector(*_domain_values(scn))
        return dom, build_grid(dom, n_s, n_t, **limits)
    except (InvalidRadii, GridError) as exc:
        raise ConfigError(str(exc))


_FAMILY_BY_NAME = {k.value: k for k in FamilyKind}


def _build_family(family: dict, theta0: float) -> exact.HomogeneousSolution:
    kind_name = family.get("kind")
    if kind_name not in _FAMILY_BY_NAME:
        raise ConfigError(f"unknown family kind {kind_name!r}")
    params = {}
    for key, val in family.items():
        if key == "kind":
            continue
        sval = str(val)
        if key == "c" and sval.strip().lower() == "none":
            params["C"] = None
        elif key in ("c", "c1", "c2") and kind_name != "pure_rotation":
            # INI lower-cases keys; map back to the family constants
            params[{"c": "C", "c1": "C1", "c2": "C2"}[key]] = _finite(sval)
        else:
            params[key] = _finite(sval)
    try:
        sol = exact.construct_exact(_FAMILY_BY_NAME[kind_name], params, theta0)
    except KeyError as exc:
        raise ConfigError(f"family {kind_name!r} needs [family] {exc.args[0].lower()}")
    # a builder records every parameter it reads
    unread = sorted(key.lower() for key in params.keys() - sol.params.keys())
    if unread:
        raise ConfigError(f"family {kind_name!r} reads no [family] {', '.join(unread)}")
    return sol


# --------------------------------------------------------------------------
# shared certification block


def _certify_exact(sol, grid):
    """Checks common to every exact-family scenario."""
    u, P = fields.sample_velocity(sol, grid)
    e_r, e_t, e_d = exact.euler_residual_closed_form(sol, grid)
    t = np.linspace(0.0, grid.theta0, 1001)
    r1, r2 = sol.closed_form_residual(t)
    prof = sol.profile(grid.theta0, 1000)
    d1, d2 = exact.profile_residual(prof)
    hom = rigidity.homogeneity_fit(u)
    br = rigidity.boundary_report(u, sol.alpha)
    psi = fields.sample_stream(sol, grid)
    lap = fields.laplacian_polar(psi)
    jac = rigidity.jacobian_check(lap, psi)
    h2 = grid.h_theta**2
    mass_tol = 100.0 * h2 * max(1.0, abs(br.c1_hat) + abs(br.c2_hat))
    checks = [
        _check("euler_residual_closed_form", max(e_r, e_t, e_d), 1e-9),
        _check("profile_residual_analytic", max(r1, r2), 1e-10),
        _check("profile_residual_discrete", max(d1, d2), 1e4 * h2 + 1e-10),
        _check("homogeneity_alpha", abs(hom["alpha_hat"] - sol.alpha), 1e-8),
        _check("jacobian_identity", jac, max(1e-4, 20.0 * h2)),
        _check("boundary_constants_residual",
               max(br.c1_residual, br.c2_residual, br.c3_residual, br.c4_residual),
               1e-6),
        _check("mass_identity", br.mass_identity_defect, mass_tol),
    ]
    artifacts = {
        "boundary_report": asdict(br),
        "homogeneity": _jsonable(hom),
        "euler_residual": [e_r, e_t, e_d],
    }
    return checks, artifacts, (u, P, psi, lap, prof)


# --------------------------------------------------------------------------
# per-tag pipelines


def _recovery_grid(grid):
    """Sampling grid for g-recovery: at least 256 cells per direction."""
    n_s, n_t = max(grid.n_s, 256), max(grid.n_theta, 256)
    if (n_s, n_t) == (grid.n_s, grid.n_theta):
        return grid
    return LogPolarGrid(grid.s_min, grid.s_max, n_s, n_t, grid.theta0)


def _solve(scn, grid, op, gspec, frame, h):
    """Newton solve, periodic in s, from the seeded perturbed start, under
    the [solver] settings; returns (Psi, report, tol)."""
    tol = _finite(scn.solver.get("tol", 1e-10))
    if tol < 0.0:
        raise ConfigError(f"[solver] tol must be nonnegative, got {tol}")
    seed = _int(scn.solver.get("seed", 0))
    amp = _finite(scn.solver.get("perturbation", 0.1))
    init = elliptic.default_initial_guess(grid, h, amplitude=amp, seed=seed)
    Psi, rep = elliptic.solve_semilinear(grid, op, gspec, frame, h, init=init, tol=tol)
    return Psi, rep, tol


def _run_thm1i(scn, grid, out):
    B = _finite(scn.solver.get("b", 1.0))
    h = lambda th: B * th / grid.theta0
    psi, rep, tol = _solve(
        scn, grid, elliptic.laplace_operator(), elliptic.ZeroG(), fields.RawFrame(), h
    )
    exact_vals = np.tile(h(grid.theta_nodes), (grid.n_s + 1, 1))
    err = float(np.max(np.abs(psi.vals - exact_vals)))
    h2 = max(grid.h_s, grid.h_theta) ** 2
    checks = [
        _check("converged", 0 if rep.converged else 1, 0),
        _check("s_variance", rep.s_variance, max(tol, 1e-6)),
        _check("profile_error", err, 5.0 * h2),
    ]
    fields.write_field(psi, out / "solution.csv")
    return checks, {"solve_report": asdict(rep)}


def _exp_case(sol, fit, boundary):
    """Thm1ii: g(z) = K exp(-2z/c) with K = -c3, solved in the alpha = 1
    frame."""
    c = float(sol.v(np.zeros(1))[0])
    checks = [
        _check("g_form_is_exp", 0 if fit.get("form") == "exp" else 1, 0),
        _check("g_exp_slope", abs(fit.get("slope", np.inf) - (-2.0 / c)), 0.02),
        _check("g_r_squared", fit.get("r_squared", 0.0), 0.999,
               ok=fit.get("r_squared", 0.0) >= 0.999),
    ]
    return (rigidity.Thm1Relation(c), checks, elliptic.ExpForm(K=-boundary["c3_hat"], c=c),
            elliptic.laplace_operator(), fields.Alpha1Frame(c))


def _power_case(sol, fit, boundary):
    """Thm2_A1: g(z) = C |z|^q with q = (alpha+1)/(alpha-1), solved in the
    general frame; C comes from the edge relation (1-alpha)^2 C1 - c3 =
    C |C1|^q with C1 = h(0)."""
    alpha = sol.alpha
    q = (alpha + 1.0) / (alpha - 1.0)
    checks = [
        _check("g_form_is_power", 0 if fit.get("form") == "power" else 1, 0),
        _check("g_power_q", abs(fit.get("q", np.inf) - q), 0.05),
    ]
    C1 = float(sol.stream_h(np.zeros(1))[0])
    C = ((1.0 - alpha) ** 2 * C1 - boundary["c3_hat"]) / abs(C1) ** q
    return (rigidity.Thm2Relation(alpha), checks, elliptic.PowerForm(C, q),
            elliptic.general_frame_operator(alpha), fields.GeneralFrame(alpha))


def _run_rigidity_solve(scn, grid, out, default_family, case):
    """Certify the family, recover g from its stream, then re-solve the
    semilinear problem from a perturbed start with the case's g-spec."""
    sol = _build_family(dict(scn.family) or default_family, grid.theta0)
    checks, artifacts, _ = _certify_exact(sol, grid)
    psi_r = fields.sample_stream(sol, _recovery_grid(grid))
    lap_r = fields.laplacian_polar(psi_r)
    rec = rigidity.recover_g(psi_r, lap_r)
    scale = float(np.nanmax(np.abs(lap_r.vals)))
    relation, form_checks, gspec, op, frame = case(
        sol, rec.fit or {}, artifacts["boundary_report"]
    )
    checks += [
        _check("g_single_valued", rec.single_valued_defect, 1e-3 * scale),
        *form_checks,
        _check("g_functional_equation", rigidity.g_functional_check(rec, relation), 1e-3),
    ]
    Psi, rep, tol = _solve(scn, grid, op, gspec, frame, sol.stream_h)
    checks.append(_check("solve_s_variance", rep.s_variance, max(tol, 1e-6)))
    artifacts["g_recovery"] = _recovery_summary(rec)
    artifacts["solve_report"] = asdict(rep)
    (out / "g_scatter.csv").write_text(rec.to_csv())
    fields.write_field(Psi, out / "solution.csv")
    return checks, artifacts


def _rotation_checks(psi, artifacts):
    """Thm3: a nonnegative rotation margin, and a stream of r alone."""
    margin = artifacts["boundary_report"]["rotation_margin"]
    theta_var = float(np.max(psi.vals.max(axis=1) - psi.vals.min(axis=1)))
    return [
        _check("rotation_margin", 0 if (margin is not None and margin >= 0) else 1, 0),
        _check("theta_variance", theta_var, 1e-12),
    ]


def _truncation_gap(psi, artifacts):
    """Thm5ii: record the stream's gap between the theta-edges at s_max."""
    artifacts["truncation_trace_gap"] = abs(float(psi.vals[-1, 0] - psi.vals[-1, -1]))
    return []


def _run_family_certification(scn, grid, out, extra=lambda psi, artifacts: []):
    """Generic pipeline: construct the configured family and certify it.
    ``extra`` returns the tag's own checks and may add artifacts."""
    sol = _build_family(dict(scn.family), grid.theta0)
    checks, artifacts, (u, P, psi, lap, prof) = _certify_exact(sol, grid)
    checks += extra(psi, artifacts)
    (out / "profile.csv").write_text(prof.to_csv(sol.kind.value, sol.params))
    fields.write_field(psi, out / "stream.csv")
    return checks, artifacts


def _run_cor1(scn, grid, out):
    c = _finite(scn.ode.get("c", 1.0))
    p = _finite(scn.ode.get("p", -1.0))
    lo = _finite(scn.ode.get("f0_min", -2.0))
    hi = _finite(scn.ode.get("f0_max", 2.0))
    n = _int(scn.ode.get("f0_count", 41))
    if n < 1:
        raise ConfigError(f"[ode] f0_count must be at least 1, got {n}")
    step = _finite(scn.ode.get("step", 1e-3))
    try:
        cfg = angular_ode.OdeConfig(step=step)
    except ValueError as exc:
        raise ConfigError(f"[ode] {exc}")
    shots = angular_ode.shoot_alpha1(c, p, np.linspace(lo, hi, n), (0.0, 2 * math.pi), cfg)
    rep = angular_ode.classify_periodic(c, p, shots)
    expected = 2 if c * c + 2.0 * p < 0 else 0
    non_periodic_ok = all(
        m.get("defect", np.inf) > 1e-3 or "blowup_theta" in m
        for m in rep["members"]
        if not m["is_periodic"]
    )
    checks = [
        _check("n_periodic", abs(rep["n_periodic"] - expected), 0),
        _check("periodic_members_constant",
               0 if rep["all_periodic_constant"] else 1, 0),
        _check("nonperiodic_separated", 0 if non_periodic_ok else 1, 0),
    ]
    w_res = [angular_ode.w_equation_residual(r.profile, c) for r in shots if not r.blew_up]
    if w_res:
        checks.append(_check("w_equation_residual", max(w_res), 100.0 * step**2))
    (out / "shooting.json").write_text(json.dumps(rep, sort_keys=True))
    return checks, {"shooting": rep}


_ATLAS = [
    ("radial_alpha1", {"p": -0.5, "sign": 1.0}, 1.0),
    ("tan", {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0),
    ("rational", {"v": 1.0, "C": 1.0}, 1.0),
    ("tanh", {"v": 1.0, "p": -1.0, "C": 1.0}, 1.0),
    ("cos_power", {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0),
    ("sin", {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}, 1.0),
    ("pure_rotation", {"alpha": 2.0, "c": 3.0}, 1.0),
]


def _run_atlas(scn, grid, out):
    checks = []
    artifacts = {}
    for kind_name, params, theta0 in _ATLAS:
        sol = exact.construct_exact(_FAMILY_BY_NAME[kind_name], params, theta0)
        e = exact.euler_residual_closed_form(sol, grid)
        t = np.linspace(0.0, theta0, 1001)
        r1, r2 = sol.closed_form_residual(t)
        checks.append(_check(f"{kind_name}_euler", max(e), 1e-9))
        checks.append(_check(f"{kind_name}_profile", max(r1, r2), 1e-10))
        artifacts[kind_name] = {"euler_residual": list(e), "profile_residual": [r1, r2]}
        prof = sol.profile(theta0, 1000)
        (out / f"profile_{kind_name}.csv").write_text(prof.to_csv(kind_name, sol.params))
    return checks, {"families": artifacts}


def _run_slide(scn, grid, out):
    profile = scn.slide.get("profile", "sec")
    n = _int(scn.slide.get("n", 500))
    try:
        g = LogPolarGrid(grid.s_min, grid.s_max, n, n, grid.theta0)
    except GridError as exc:
        raise ConfigError(f"[slide] n: {exc}")
    th = g.theta_nodes
    if profile == "sec":
        vals = np.tile(1.0 / np.cos(th), (g.n_s + 1, 1))
    elif profile == "theta":
        vals = np.tile(th, (g.n_s + 1, 1))
    else:
        raise ConfigError(f"unknown slide profile {profile!r}")
    Psi = fields.ScalarField(g, vals)
    xi = (_finite(scn.slide.get("xi1", 1.0)), _finite(scn.slide.get("xi2", 1.0)))
    taus = [_finite(t) for t in str(scn.slide.get("taus", "0.1")).split(",") if t.strip()]
    try:
        rep = rigidity.sliding_check(Psi, xi, taus)
    except ParameterDomain as exc:  # no tau, or a shift that leaves the rectangle
        raise ConfigError(f"[slide] {exc}")
    checks = [_check("min_w_nonnegative", 0 if rep["min_w"] >= 0 else 1, 0)]
    if profile == "sec" and any(abs(t - 0.1) < 1e-12 for t in taus):
        spot = [e for e in rep["per_tau"] if abs(e["tau"] - 0.1) < 1e-12][0]
        oracle = 1.0 / math.cos(0.1) - 1.0
        checks.append(_check("sec_spot_value", abs(spot["min_w"] - oracle), 1e-6))
    return checks, {"sliding": rep}


def _run_verify(scn, grid, out):
    try:
        psi = fields.read_field(scn.verify["psi_csv"], grid)
    except (OSError, GridMismatch) as exc:  # a missing file or another grid's export
        raise ConfigError(f"cannot read psi_csv: {exc}")
    lap = fields.laplacian_polar(psi)
    rec = rigidity.recover_g(psi, lap)
    jac = rigidity.jacobian_check(lap, psi)
    scale = float(np.nanmax(np.abs(lap.vals))) + 1e-300
    checks = [
        _check("g_single_valued", rec.single_valued_defect, 0.05 * scale),
        _check("jacobian_identity", jac, 1e-2),
    ]
    (out / "g_scatter.csv").write_text(rec.to_csv())
    artifacts = {
        "g_recovery": _recovery_summary(rec),
        "jacobian": jac,
        "s_variance": rigidity.s_variance(psi),
    }
    return checks, artifacts


_EXACT = TagSpec(_run_family_certification, "exact")
_HALF_LINE = (1.0, math.inf, 1.0)

#: every scenario tag, in the paper's order
TAGS: dict[str, TagSpec] = {
    "Thm1i": TagSpec(_run_thm1i, "solve", unit_annulus=True),
    "Thm1ii": TagSpec(
        partial(_run_rigidity_solve, case=_exp_case,
                default_family={"kind": "tan", "v": "1", "p": "0", "c": "0"}),
        "solve", unit_annulus=True,
    ),
    "Thm2_A1": TagSpec(
        partial(_run_rigidity_solve, case=_power_case,
                default_family={"kind": "cos_power", "alpha": "2", "c1": "1", "c2": "0"}),
        "solve", unit_annulus=True,
    ),
    "Thm2_A2": _EXACT,
    "Thm2_A3": _EXACT,
    "Thm2_A4": _EXACT,
    "Thm3": TagSpec(partial(_run_family_certification, extra=_rotation_checks), "exact"),
    "Thm4_B1": _EXACT,
    "Thm4_B2": _EXACT,
    "Thm4_B3": _EXACT,
    "Thm4_B4": _EXACT,
    "Thm5i": TagSpec(_run_family_certification, "exact", domain=_HALF_LINE),
    "Thm5ii": TagSpec(partial(_run_family_certification, extra=_truncation_gap), "exact",
                      domain=_HALF_LINE),
    "Cor1": TagSpec(_run_cor1, "ode", domain=(1.0, 2.0, 2.0 * math.pi),
                    requires=(("ode", "c"),)),
    "AppendixAtlas": TagSpec(_run_atlas, "exact"),
    "Slide": TagSpec(_run_slide, "slide"),
    "Verify": TagSpec(_run_verify, "verify", requires=(("verify", "psi_csv"),)),
}


def run_scenario(scn: Scenario, out_dir: str | Path) -> tuple[int, dict]:
    """Execute the scenario pipeline; returns (exit_code, report).

    Exit codes: 0 all checks passed, 1 at least one check failed,
    3 numerical failure or exhausted memory inside a pipeline step (a
    failed solve keeps its ``solve_report``).  The report is written as
    sorted-key JSON to out_dir/report.json either way; a ConfigError
    propagates unwritten.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {"scenario": scn.name, "tag": scn.tag}
    try:
        dom, grid = _domain_grid(scn)
        report["grid"] = grid.metadata(dom)
        checks, artifacts = TAGS[scn.tag].pipeline(scn, grid, out)
    except ConfigError:
        raise
    except (SectorflowError, ValueError, ArithmeticError, MemoryError,
            np.linalg.LinAlgError) as exc:
        if isinstance(exc, MemoryError):  # numpy's message names the size, not the error
            exc = PipelineFailure(f"pipeline step ran out of memory: {exc}")
        elif not isinstance(exc, SectorflowError):
            exc = PipelineFailure(f"pipeline step failed: {exc}")
        report["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NoConvergence) and exc.report is not None:
            report["solve_report"] = asdict(exc.report)
        report["passed"] = False
        _write_json(out / "report.json", report)
        return 3, report
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    report.update(_jsonable(artifacts))
    _write_json(out / "report.json", report)
    return (0 if report["passed"] else 1), report


def _write_json(path: Path, obj: dict):
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def run_batch(config_path: str | Path, out_dir: str | Path) -> tuple[int, dict]:
    """Run every scenario listed in a batch config into isolated subdirs.

    Scenarios execute sequentially in listed order so that repeated runs
    are byte-identical.  The summary records each scenario's exit code;
    the batch exits 0 only if all scenarios do.
    """
    config_path = Path(config_path)
    cp = configparser.ConfigParser()
    try:
        cp.read_string(config_path.read_text())
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"invalid batch config: {exc}")
    if "batch" not in cp or "scenarios" not in cp["batch"]:
        raise ConfigError("batch config needs [batch] scenarios = path, path, ...")
    paths = [
        p.strip() for p in cp["batch"]["scenarios"].split(",") if p.strip()
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"scenarios": []}
    worst = 0
    for rel in paths:
        scn = parse_config((config_path.parent / rel).resolve())
        code, report = run_scenario(scn, out / scn.name)
        summary["scenarios"].append(
            {"name": scn.name, "tag": scn.tag, "exit_code": code,
             "passed": report.get("passed", False)}
        )
        worst = max(worst, code)
    summary["exit_code"] = worst
    _write_json(out / "summary.json", summary)
    return worst, summary
