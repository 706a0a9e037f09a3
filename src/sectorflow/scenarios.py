"""Scenario pipelines: configuration parsing, per-tag verification runs,
and deterministic report emission.

A scenario names a theorem tag, a domain/grid, family or boundary data,
and tolerances.  Running it executes the tag's pipeline (construct or
solve, transform, certify), writes its files and a JSON report, and
returns exit status 0 only if every check for the tag passes.

A tag is one :data:`TAGS` entry: its pipeline, the CLI subcommand that
runs it, its default domain and family, and the config keys it cannot run
without.  :func:`parse_config` parses and checks every config value, from
the one :data:`_KEYS` table, and builds the domain and grid; the pipelines
only compute, and :func:`run_scenario` writes every file a run produces.
"""

from __future__ import annotations

import ast
import configparser
import math
import operator
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import angular_ode, elliptic, exact, fields, rigidity
from .domain import (MIN_CELLS, LogPolarGrid, SectorDomain, build_grid, make_sector,
                     sorted_json)
from .errors import (ConfigError, EmptyOverlap, GridError, GridMismatch, InvalidAngle,
                     InvalidRadii, NoConvergence, PipelineFailure, SectorflowError)
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


def _where(parse, ok, rule: str):
    """``parse`` restricted to the values ``ok`` accepts; ``rule`` names them."""
    def parse_in_range(text):
        value = parse(text)
        if not ok(value):
            raise ConfigError(f"must be {rule}, got {value!r}")
        return value
    return parse_in_range


_NONNEGATIVE = _where(_finite, lambda x: x >= 0.0, "nonnegative")
_SLIDE_PROFILES = {"sec": lambda th: 1.0 / np.cos(th), "theta": lambda th: th}

#: every section's keys, each with its parser and its default (None: none);
#: a parser raises ConfigError or ValueError on a value it rules out.
#: [domain]'s defaults are the tag's, and _family parses [family].
_KEYS = {
    "scenario": {"name": (str, None), "tag": (str, None)},
    "domain": {"a": (_num, None), "b": (_num, None), "theta0": (_num, None)},
    "grid": {"n_s": (int, 64), "n_theta": (int, 64),
             "s_min": (_finite, None), "s_max": (_finite, None)},
    "family": None,
    "solver": {"tol": (_NONNEGATIVE, 1e-10),
               "seed": (_where(int, lambda n: 0 <= n < 2**64, "in [0, 2**64)"), 0),
               "perturbation": (_finite, 0.1), "b": (_finite, 1.0)},
    "ode": {"c": (_finite, None), "p": (_finite, -1.0), "f0_min": (_finite, -2.0),
            "f0_max": (_finite, 2.0),
            "f0_count": (_where(int, lambda n: n >= 1, "at least 1"), 41),
            "step": (lambda text: angular_ode.OdeConfig(step=_finite(text)).step, 1e-3)},
    "slide": {"profile": (_where(str, _SLIDE_PROFILES.__contains__, "sec or theta"), "sec"),
              "n": (_where(int, lambda n: n >= MIN_CELLS, f"at least {MIN_CELLS} cells"), 500),
              "xi1": (_NONNEGATIVE, 1.0),
              "xi2": (_where(_finite, lambda x: x > 0.0, "positive"), 1.0),
              "taus": (_where(lambda text: tuple(_finite(t) for t in text.split(",") if t.strip()),
                              lambda taus: taus and min(taus) >= 0.0,
                              "one or more nonnegative numbers"), (0.1,))},
    "verify": {"psi_csv": (_where(str, bool, "a path"), None)},
}


def _section(name: str, items: dict, keys: dict | None = None) -> dict:
    """[name]'s values, each parsed and checked by its ``keys`` entry (by
    default its _KEYS entry), over the entries' defaults."""
    keys = keys or _KEYS[name]
    values = {key: default for key, (_, default) in keys.items() if default is not None}
    for key, text in items.items():
        if key not in keys:
            raise ConfigError(f"unknown config key [{name}] {key}")
        try:
            values[key] = keys[key][0](text)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"[{name}] {key}: {exc}")
    return values


#: INI keys are lower-case; the builders name the shift constants C, C1, C2
_CONSTANTS = {"c": "C", "c1": "C1", "c2": "C2"}


def _family(items: dict) -> dict:
    """[family] as its ``kind`` (a FamilyKind) plus the builder's parameters:
    numbers, but for the rational family's c = none (its f = 0 branch)."""
    kind = items.get("kind")
    keys = {key: (_finite, None) for key in items}
    keys["kind"] = (FamilyKind, None)
    if kind == "rational":
        keys["c"] = (lambda text: None if text.lower() == "none" else _finite(text), None)
    return {key if kind == "pure_rotation" else _CONSTANTS.get(key, key): value
            for key, value in _section("family", items, keys).items()}


@dataclass
class Scenario:
    """A parsed and checked scenario: its domain and grid, and each other
    section's values, typed, with the defaults filled in."""

    name: str
    tag: str
    domain: SectorDomain
    grid: LogPolarGrid
    family: dict
    solver: dict
    ode: dict
    slide: dict
    verify: dict


@dataclass(frozen=True)
class TagSpec:
    """What a scenario tag is: its pipeline (from the Scenario to its checks,
    report artifacts and files, each file name with its text or field), the
    CLI subcommand that runs it, its default (a, b, theta0) and [family],
    whether it must run on the annulus a = 1, b = 2, and the (section, key)
    pairs it cannot run without."""

    pipeline: Callable
    subcommand: str
    domain: tuple = (1.0, 2.0, 1.0)
    family: dict = dc_field(default_factory=dict)
    unit_annulus: bool = False
    requires: tuple = ()


def _read_ini(path: str | Path, overrides: dict | None = None, known=_KEYS) -> dict:
    """The INI file's sections as {section: {key: text}}, with ``overrides``
    laid over them; a file that cannot be read or is not INI (a bare ``%``
    included, which raises on reading the section), or a section not in
    ``known``, is a ConfigError."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(Path(path).read_text(encoding="utf-8"))
        cp.read_dict(overrides or {})
        text = {name: dict(cp[name]) for name in cp.sections()}
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"invalid config {path}: {exc}")
    for name in text:
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]")
    return text


def parse_config(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Read an INI scenario file, with ``overrides`` ({section: {key:
    value}}, as the CLI's --seed and --tol) laid over it, into a Scenario:
    a [scenario] section with the tag (and an optional name), plus any of
    the other sections in _KEYS.  Every value is parsed and range-checked
    here, and the domain and grid are built.  A file that cannot be read
    or is not INI, any other section or key, or a value, domain or grid
    that the checks rule out, is a ConfigError."""
    text = _read_ini(path, overrides)
    meta = _section("scenario", text.get("scenario", {}))
    tag = meta.get("tag")
    if tag not in TAGS:
        raise ConfigError(f"unknown or missing scenario tag {tag!r}")
    spec = TAGS[tag]
    values = {name: _section(name, text.get(name, {}))
              for name in ("domain", "grid", "solver", "ode", "slide", "verify")}
    values["family"] = _family(text.get("family", {})) or dict(spec.family)
    for section, key in spec.requires:
        if key not in values[section]:
            raise ConfigError(f"{tag} needs [{section}] {key}")
    dom = {**dict(zip(("a", "b", "theta0"), spec.domain)), **values.pop("domain")}
    if spec.unit_annulus and (dom["a"], dom["b"]) != (1.0, 2.0):
        raise ConfigError(f"tag {tag} runs on the annulus a=1, b=2 "
                          f"(got a={dom['a']}, b={dom['b']})")
    g = values.pop("grid")
    try:
        domain = make_sector(dom["a"], dom["b"], dom["theta0"])
        grid = build_grid(domain, g["n_s"], g["n_theta"], g.get("s_min"), g.get("s_max"))
    except (InvalidRadii, InvalidAngle, GridError) as exc:
        raise ConfigError(str(exc))
    return Scenario(meta.get("name", tag), tag, domain, grid, **values)


def _check(name, value, threshold, ok=None):
    return {"name": name, "value": value, "threshold": threshold,
            "passed": bool(value <= threshold if ok is None else ok)}


def _build_family(family: dict, theta0: float) -> exact.HomogeneousSolution:
    """The [family] member on [0, theta0].  Only its builder knows the
    parameters a kind needs and reads: a missing or unread one is a
    ConfigError."""
    kind = family["kind"]
    params = {key: value for key, value in family.items() if key != "kind"}
    try:
        sol = exact.construct_exact(kind, params, theta0)
    except KeyError as exc:
        raise ConfigError(f"family {kind.value!r} needs [family] {exc.args[0].lower()}")
    # a builder records every parameter it reads
    unread = sorted(key.lower() for key in params.keys() - sol.params.keys())
    if unread:
        raise ConfigError(f"family {kind.value!r} reads no [family] {', '.join(unread)}")
    return sol


# --------------------------------------------------------------------------
# shared certification block


def _closed_form(sol, grid, euler_name, profile_name):
    """The Euler residual on ``grid`` and the analytic one on the 1000-cell profile, checked at
    1e-9 and 1e-10 under the given names: (checks, Euler residual, profile, its residual)."""
    e = exact.euler_residual_closed_form(sol, grid)
    prof = sol.profile(grid.theta0, 1000)
    r = sol.closed_form_residual(prof.theta_nodes)
    return [_check(euler_name, max(e), 1e-9), _check(profile_name, max(r), 1e-10)], e, prof, r


def _certify_exact(sol, grid):
    """Checks common to every exact-family scenario, their artifacts, the
    sampled stream and its Laplacian, and the profile: (checks, artifacts,
    psi, lap, prof)."""
    u = fields.sample_velocity(sol, grid)
    hom = rigidity.homogeneity_fit(u)
    br = rigidity.boundary_report(u, sol.alpha)
    del u  # the velocity is released before the stream and its Laplacian exist
    checks, e, prof, _ = _closed_form(sol, grid, "euler_residual_closed_form",
                                      "profile_residual_analytic")
    d1, d2 = exact.profile_residual(prof)
    psi = fields.sample_stream(sol, grid)
    lap = fields.laplacian_polar(psi)
    jac = rigidity.jacobian_check(lap, psi)
    h2 = grid.h_theta**2
    mass_tol = 100.0 * h2 * max(1.0, abs(br.c1_hat) + abs(br.c2_hat))
    checks += [
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
        "homogeneity": hom,
        "euler_residual": list(e),
    }
    return checks, artifacts, psi, lap, prof


# --------------------------------------------------------------------------
# per-tag pipelines


def _recovery_grid(grid):
    """Sampling grid for g-recovery: at least 256 cells per direction."""
    n_s, n_t = max(grid.n_s, 256), max(grid.n_theta, 256)
    if (n_s, n_t) == (grid.n_s, grid.n_theta):
        return grid
    return LogPolarGrid(grid.s_min, grid.s_max, n_s, n_t, grid.theta0)


def _solve(scn, gspec, frame, h, variance_name):
    """Newton solve, periodic in s, from the seeded perturbed start, under
    the [solver] settings.  Returns the report, two checks on Psi: its
    s-variance, named ``variance_name``, and max |Psi - h(theta)| over the
    mesh against 5 h^2 (h the larger step), and the files: solution.npy,
    the stream psi mapped back from the working-frame Psi."""
    grid, solver = scn.grid, scn.solver
    init = elliptic.default_initial_guess(grid, h, amplitude=solver["perturbation"],
                                          seed=solver["seed"])
    Psi, rep = elliptic.solve_semilinear(grid, gspec, frame, h, init=init, tol=solver["tol"])
    psi = fields.ScalarField(grid, elliptic.from_working(grid.s_nodes[:, None], Psi.vals, frame))
    err = float(np.max(np.abs(Psi.vals - h(grid.theta_nodes))))
    return (rep, [_check(variance_name, rep.s_variance, max(solver["tol"], 1e-6)),
                  _check("profile_error", err, 5.0 * max(grid.h_s, grid.h_theta) ** 2)],
            {"solution.npy": psi})


def _recover_g(psi, lap, bound):
    """g recovered from the stream ``psi`` and its Laplacian ``lap``: (the
    recovery, its g_single_valued check against ``bound`` times max |lap| (rec.scale),
    its report summary)."""
    rec = rigidity.recover_g(psi, lap)
    summary = {"single_valued_defect": rec.single_valued_defect, "fits": rec.fits,
               "fit": rec.fit, "n_bins": len(rec.z_samples)}
    return rec, _check("g_single_valued", rec.single_valued_defect, bound * rec.scale), summary


def _run_thm1i(scn):
    h = lambda th: scn.solver["b"] * th / scn.grid.theta0
    rep, checks, files = _solve(scn, elliptic.ZeroG(), elliptic.Frame(1.0), h, "s_variance")
    checks.insert(0, _check("converged", 0 if rep.converged else 1, 0))
    return checks, {"solve_report": asdict(rep)}, files


def _exp_case(sol, fit, boundary):
    """Thm1ii: g(z) = K exp(-2z/c) with K = -c3, solved in Frame(1, c)."""
    c = float(sol.v(np.zeros(1))[0])
    checks = [
        _check("g_form_is_exp", 0 if fit.get("form") == "exp" else 1, 0),
        _check("g_exp_slope", abs(fit.get("slope", np.inf) - (-2.0 / c)), 0.02),
        _check("g_r_squared", fit.get("r_squared", 0.0), 0.999,
               ok=fit.get("r_squared", 0.0) >= 0.999),
    ]
    return checks, elliptic.ExpForm(K=-boundary["c3_hat"], c=c), elliptic.Frame(1.0, c)


def _power_case(sol, fit, boundary):
    """Thm2_A1: g(z) = C |z|^q with q = (alpha+1)/(alpha-1), solved in
    Frame(alpha); C comes from the edge relation (1-alpha)^2 C1 - c3 =
    C |C1|^q with C1 = h(0)."""
    alpha = sol.alpha
    q = (alpha + 1.0) / (alpha - 1.0)
    checks = [
        _check("g_form_is_power", 0 if fit.get("form") == "power" else 1, 0),
        _check("g_power_q", abs(fit.get("q", np.inf) - q), 0.05),
    ]
    C1 = float(sol.stream_h(np.zeros(1))[0])
    C = ((1.0 - alpha) ** 2 * C1 - boundary["c3_hat"]) / abs(C1) ** q
    return checks, elliptic.PowerForm(C, q), elliptic.Frame(alpha)


def _run_rigidity_solve(scn, case):
    """Certify the family, recover g from its stream, then re-solve the
    semilinear problem from a perturbed start with the case's g-spec."""
    grid = scn.grid
    sol = _build_family(scn.family, grid.theta0)
    checks, artifacts, psi, lap, _ = _certify_exact(sol, grid)
    if _recovery_grid(grid) is not grid:
        psi = fields.sample_stream(sol, _recovery_grid(grid))
        lap = fields.laplacian_polar(psi)
    rec, single_valued, artifacts["g_recovery"] = _recover_g(psi, lap, 1e-3)
    del psi, lap  # not held through the solve
    form_checks, gspec, frame = case(sol, rec.fit or {}, artifacts["boundary_report"])
    checks += [
        single_valued,
        *form_checks,
        _check("g_functional_equation",
               rigidity.g_functional_check(rec, frame.alpha, frame.c), 1e-3),
    ]
    # an s-free Psi passes solve_s_variance under a wrong K or C too
    rep, solve_checks, files = _solve(scn, gspec, frame, sol.stream_h, "solve_s_variance")
    artifacts["solve_report"] = asdict(rep)
    return checks + solve_checks, artifacts, {**files, "g_scatter.csv": rec.to_csv()}


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


def _run_family_certification(scn, extra=lambda psi, artifacts: []):
    """Generic pipeline: construct the configured family and certify it.
    ``extra`` returns the tag's own checks and may add artifacts."""
    grid = scn.grid
    sol = _build_family(scn.family, grid.theta0)
    checks, artifacts, psi, _, prof = _certify_exact(sol, grid)
    checks += extra(psi, artifacts)
    stream = "stream.npy" if grid.shape[0] * grid.shape[1] >= 512 * 512 else "stream.csv"
    return checks, artifacts, {"profile.csv": prof.to_csv(sol.kind.value, sol.params),
                               stream: psi}


def _run_cor1(scn):
    c, p, step = scn.ode["c"], scn.ode["p"], scn.ode["step"]
    f0 = np.linspace(scn.ode["f0_min"], scn.ode["f0_max"], scn.ode["f0_count"])
    shots = angular_ode.shoot_alpha1(c, p, f0, (0.0, 2 * math.pi),
                                     angular_ode.OdeConfig(step=step))
    rep = angular_ode.classify_periodic(c, p, shots)
    # the closed form's periodic members: the constants f0 = +-sqrt(-(c^2 + 2p))
    expected = int(np.sum(np.abs(f0 * f0 + (c * c + 2.0 * p)) < angular_ode.PERIODIC_TOL))
    # a blown-up member has no defect
    non_periodic_ok = all(m.get("defect", np.inf) > 1e-3
                          for m in rep["members"] if not m["is_periodic"])
    checks = [
        _check("n_periodic", abs(rep["n_periodic"] - expected), 0),
        _check("periodic_members_constant",
               0 if rep["all_periodic_constant"] else 1, 0),
        _check("nonperiodic_separated", 0 if non_periodic_ok else 1, 0),
    ]
    w_res = [angular_ode.w_equation_residual(r.profile, c) for r in shots if not r.blew_up]
    if w_res:
        checks.append(_check("w_equation_residual", max(w_res), 100.0 * step**2))
    return checks, {"shooting": rep}, {}


_ATLAS = [
    ("radial_alpha1", {"p": -0.5, "sign": 1.0}),
    ("tan", {"v": 1.0, "p": 0.0, "C": 0.0}),
    ("rational", {"v": 1.0, "C": 1.0}),
    ("tanh", {"v": 1.0, "p": -1.0, "C": 1.0}),
    ("cos_power", {"alpha": 2.0, "C1": 1.0, "C2": 0.0}),
    ("sin", {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}),
    ("pure_rotation", {"alpha": 2.0, "c": 3.0}),
]


def _run_atlas(scn):
    checks, artifacts, files = [], {}, {}
    for kind_name, params in _ATLAS:
        sol = exact.construct_exact(FamilyKind(kind_name), params, scn.grid.theta0)
        pair, e, prof, r = _closed_form(sol, scn.grid, f"{kind_name}_euler", f"{kind_name}_profile")
        checks += pair
        artifacts[kind_name] = {"euler_residual": list(e), "profile_residual": list(r)}
        files[f"profile_{kind_name}.csv"] = prof.to_csv(kind_name, sol.params)
    return checks, {"families": artifacts}, files


def _run_slide(scn):
    profile, n, taus = scn.slide["profile"], scn.slide["n"], scn.slide["taus"]
    g = LogPolarGrid(scn.grid.s_min, scn.grid.s_max, n, n, scn.grid.theta0)
    # every s-row is the profile: one row as a read-only view, which sliding_check only reads
    Psi = fields.ScalarField(g, np.broadcast_to(_SLIDE_PROFILES[profile](g.theta_nodes), g.shape))
    try:
        rep = rigidity.sliding_check(Psi, (scn.slide["xi1"], scn.slide["xi2"]), taus)
    except EmptyOverlap as exc:  # a shift that leaves the rectangle
        raise ConfigError(f"[slide] {exc}")
    checks = [_check("min_w_nonnegative", 0 if rep["min_w"] >= 0 else 1, 0)]
    if profile == "sec" and any(abs(t - 0.1) < 1e-12 for t in taus):
        spot = [e for e in rep["per_tau"] if abs(e["tau"] - 0.1) < 1e-12][0]
        oracle = 1.0 / math.cos(0.1 * scn.slide["xi2"]) - 1.0  # the gap at theta = 0, its least
        checks.append(_check("sec_spot_value", abs(spot["min_w"] - oracle), 1e-6))
    return checks, {"sliding": rep, "grid": g.metadata(scn.domain)}, {}


def _run_verify(scn):
    try:
        psi = fields.read_field(scn.verify["psi_csv"], scn.grid)
    except (OSError, GridMismatch) as exc:  # a missing file or another grid's export
        raise ConfigError(f"cannot read psi_csv: {exc}")
    lap = fields.laplacian_polar(psi)
    rec, single_valued, summary = _recover_g(psi, lap, 0.05)
    jac = rigidity.jacobian_check(lap, psi)
    artifacts = {"g_recovery": summary, "jacobian": jac, "s_variance": rigidity.s_variance(psi)}
    return ([single_valued, _check("jacobian_identity", jac, 1e-2)], artifacts,
            {"g_scatter.csv": rec.to_csv()})


_KIND = (("family", "kind"),)
_EXACT = TagSpec(_run_family_certification, "exact", requires=_KIND)
_HALF_LINE = (1.0, math.inf, 1.0)

#: every scenario tag, in the paper's order
TAGS: dict[str, TagSpec] = {
    "Thm1i": TagSpec(_run_thm1i, "solve", unit_annulus=True),
    "Thm1ii": TagSpec(partial(_run_rigidity_solve, case=_exp_case), "solve",
                      family={"kind": FamilyKind.TAN, "v": 1.0, "p": 0.0, "C": 0.0},
                      unit_annulus=True, requires=_KIND),
    "Thm2_A1": TagSpec(partial(_run_rigidity_solve, case=_power_case), "solve",
                       family={"kind": FamilyKind.COS_POWER, "alpha": 2.0, "C1": 1.0, "C2": 0.0},
                       unit_annulus=True, requires=_KIND),
    "Thm2_A2": _EXACT,
    "Thm2_A3": _EXACT,
    "Thm2_A4": _EXACT,
    "Thm3": TagSpec(partial(_run_family_certification, extra=_rotation_checks), "exact",
                    requires=_KIND),
    "Thm4_B1": _EXACT,
    "Thm4_B2": _EXACT,
    "Thm4_B3": _EXACT,
    "Thm4_B4": _EXACT,
    "Thm5i": TagSpec(_run_family_certification, "exact", domain=_HALF_LINE, requires=_KIND),
    "Thm5ii": TagSpec(partial(_run_family_certification, extra=_truncation_gap), "exact",
                      domain=_HALF_LINE, requires=_KIND),
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
    failed solve keeps its ``solve_report``).  The pipeline's files go to
    out_dir, then the sorted-key JSON report to out_dir/report.json; a
    failed step writes the report alone, and a ConfigError propagates unwritten.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {"scenario": scn.name, "tag": scn.tag, "grid": scn.grid.metadata(scn.domain)}
    try:
        checks, artifacts, files = TAGS[scn.tag].pipeline(scn)
        report["checks"] = checks
        code = 0 if all(c["passed"] for c in checks) else 1
    except ConfigError:
        raise
    except (SectorflowError, ValueError, ArithmeticError, MemoryError,
            np.linalg.LinAlgError) as exc:
        if isinstance(exc, MemoryError):  # numpy's message names the size, not the error
            exc = PipelineFailure(f"pipeline step ran out of memory: {exc}")
        elif not isinstance(exc, SectorflowError):
            exc = PipelineFailure(f"pipeline step failed: {exc}")
        report["error"] = f"{type(exc).__name__}: {exc}"
        artifacts, files, code = {}, {}, 3
        if isinstance(exc, NoConvergence) and exc.report is not None:
            artifacts["solve_report"] = asdict(exc.report)
    for name, data in files.items():
        if isinstance(data, str):
            (out / name).write_text(data)
        else:
            fields.write_field(data, out / name)
    report.update(artifacts, passed=code == 0)
    (out / "report.json").write_text(sorted_json(report))
    return code, report


def run_batch(config_path: str | Path, out_dir: str | Path) -> tuple[int, dict]:
    """Run every scenario listed in a batch config into isolated subdirs.

    Every config is parsed, which checks its values and builds its domain
    and grid, before any runs; a mistake there, a batch file section other
    than [batch] or key other than ``scenarios``, an empty scenario list,
    or a scenario name that is not one plain path component or is taken,
    is a ConfigError.  Scenarios execute sequentially in listed order so that
    repeated runs are byte-identical.  The summary records each scenario's
    exit code; the batch exits 0 only if all scenarios do.
    """
    config_path = Path(config_path)
    batch = _read_ini(config_path, known=("batch",)).get("batch", {})
    listed = _section("batch", batch, {"scenarios": (str, None)}).get("scenarios", "")
    scenarios = [parse_config((config_path.parent / rel.strip()).resolve())
                 for rel in listed.split(",") if rel.strip()]
    if not scenarios:
        raise ConfigError("batch config needs [batch] scenarios = path, path, ...")
    taken = {"summary.json"}
    for scn in scenarios:
        if scn.name in ("", ".", "..") or Path(scn.name).name != scn.name:
            raise ConfigError(f"scenario name {scn.name!r} is not a plain directory name")
        if scn.name in taken:
            raise ConfigError(f"scenario name {scn.name!r} is already taken")
        taken.add(scn.name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"scenarios": []}
    for scn in scenarios:
        code, report = run_scenario(scn, out / scn.name)
        summary["scenarios"].append({"name": scn.name, "tag": scn.tag, "exit_code": code,
                                     "passed": report.get("passed", False)})
    summary["exit_code"] = worst = max(item["exit_code"] for item in summary["scenarios"])
    (out / "summary.json").write_text(sorted_json(summary))
    return worst, summary
