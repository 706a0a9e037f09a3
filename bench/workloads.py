"""Seeded scenario configs for the three benchmark workloads.

Every op is one sectorflow scenario run.  A workload is a *round*: a fixed
list of ops that the benchmark repeats in a closed loop with one client.
The configs are seeded jitter around the shipped ``configs/*.ini`` values;
the base values are copied here so that later edits to ``configs/`` do not
move the benchmark's inputs.  Jitter is kept small enough that the work per
op (Newton iterations, RK4 steps, grid sizes) stays the same from seed to
seed, so that the spread between seeds measures the program, not the seed.

This module does not import sectorflow: the configs are plain INI text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("certify-sweep", "solve-ladder", "mixed-batch")

# (tag, family section, domain section, grid extras) as shipped in configs/
_FINITE = {"a": "1", "b": "2", "theta0": "1.0"}
_HALF_LINE = {"a": "1", "b": "inf", "theta0": "1.0"}
_CLIP = {"s_min": "0", "s_max": "4"}
FAMILY_TAGS = (
    ("Thm2_A2", {"kind": "sin", "alpha": 2.0, "p": -0.5, "c": math.pi / 2}, _FINITE, {}),
    ("Thm2_A3", {"kind": "cos_power", "alpha": 3.0, "c1": 1.0, "c2": -0.2}, _FINITE, {}),
    ("Thm2_A4", {"kind": "sin", "alpha": 0.5, "p": -1.0, "c": 0.3}, _FINITE, {}),
    ("Thm3", {"kind": "pure_rotation", "alpha": 2.0, "c": 3.0}, _FINITE, {}),
    ("Thm4_B1", {"kind": "tan", "v": 2.0, "p": -1.0, "c": 0.2}, _FINITE, {}),
    ("Thm4_B2", {"kind": "rational", "v": 1.0, "c": 1.0}, _FINITE, {}),
    ("Thm4_B3", {"kind": "tanh", "v": 1.0, "p": -1.0, "c": 1.0}, _FINITE, {}),
    ("Thm4_B4", {"kind": "radial_alpha1", "p": -0.5, "sign": "1"}, _FINITE, {}),
    ("Thm5i", {"kind": "tanh", "v": 1.0, "p": -1.0, "c": 2.0}, _HALF_LINE, _CLIP),
    ("Thm5ii", {"kind": "sin", "alpha": 2.0, "p": -0.5, "c": math.pi / 2}, _HALF_LINE, _CLIP),
)

# Check names each tag's report carries on the seed code.  An op whose
# report lacks one of them fails the output gate, so that a change cannot
# look faster by dropping a check.
_EXACT_CHECKS = (
    "euler_residual_closed_form",
    "profile_residual_analytic",
    "profile_residual_discrete",
    "homogeneity_alpha",
    "jacobian_identity",
    "boundary_constants_residual",
    "mass_identity",
)
_ATLAS_KINDS = ("radial_alpha1", "tan", "rational", "tanh", "cos_power", "sin", "pure_rotation")
REQUIRED_CHECKS = {
    **{tag: _EXACT_CHECKS for tag, *_ in FAMILY_TAGS},
    "Thm3": _EXACT_CHECKS + ("rotation_margin", "theta_variance"),
    "AppendixAtlas": tuple(f"{k}_{part}" for k in _ATLAS_KINDS for part in ("euler", "profile")),
    "Slide": ("min_w_nonnegative", "sec_spot_value"),
    "Verify": ("g_single_valued", "jacobian_identity"),
    "Thm1i": ("converged", "s_variance", "profile_error"),
    "Thm1ii": _EXACT_CHECKS + (
        "g_single_valued", "g_form_is_exp", "g_exp_slope", "g_r_squared",
        "g_functional_equation", "solve_s_variance",
    ),
    "Thm2_A1": _EXACT_CHECKS + (
        "g_single_valued", "g_form_is_power", "g_power_q", "g_functional_equation",
        "solve_s_variance",
    ),
    # w_equation_residual appears only when some shooting member survives
    # to 2*pi, i.e. on the c^2 + 2p < 0 side; see _cor1.
    "Cor1": ("n_periodic", "periodic_members_constant", "nonperiodic_separated"),
}

CERTIFY_SIZES = (128, 256, 512)
# Verify's g_single_valued threshold is relative to the Laplacian's scale,
# so it rejects the near-harmonic stream fields of Thm2_A2, Thm2_A4,
# Thm4_B4 and Thm5ii on the seed code.  Verify ops read only these fields.
VERIFY_TAGS = ("Thm2_A3", "Thm3", "Thm4_B1", "Thm4_B2", "Thm4_B3", "Thm5i")
# Slide's sec_spot_value (1e-6 against the closed form) fails below about
# n = 500 on the seed code (5.0e-6 at 128, 1.9e-6 at 256), so Slide runs
# from its shipped n = 500 upward.
SLIDE_SIZES = (512, 768, 1024)
SOLVE_SIZES = (128, 256, 384)
SLIDE_TAUS = "0.02,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45"
JITTER = 0.05


@dataclass
class Op:
    """One scenario run: its INI sections and the checks its report must hold."""

    name: str
    tag: str
    sections: dict
    required: tuple

    def ini(self) -> str:
        lines = []
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in values.items()]
            lines.append("")
        return "\n".join(lines)


@dataclass
class Workload:
    """A round of ops plus the small warm-up run before timing starts.

    ``batch`` marks a workload whose round is one ``run_batch`` call over
    all its ops, in order; otherwise each op is its own ``run_scenario``.
    ``probes`` are the known-defect ops: they are run once, in the traced
    run only, and reported as a count, never mixed into the timed ops.
    """

    name: str
    ops: list
    warmup: list
    batch: bool = False
    probes: list = field(default_factory=list)


def _jit(rng: random.Random, value: float) -> str:
    return repr(value * (1.0 + rng.uniform(-JITTER, JITTER)))


def _family_section(rng, family: dict) -> dict:
    out = {}
    for key, value in family.items():
        if isinstance(value, str):
            out[key] = value
        elif value == 0.0:
            out[key] = "0.0"
        else:
            out[key] = _jit(rng, value)
    return out


def _grid(n: int, extra: dict) -> dict:
    return {"n_s": str(n), "n_theta": str(n), **extra}


def _family_op(rng, spec, n: int) -> Op:
    tag, family, domain, extra = spec
    name = f"{tag.lower()}-n{n}"
    sections = {
        "scenario": {"name": name, "tag": tag},
        "domain": dict(domain),
        "grid": _grid(n, extra),
        "family": _family_section(rng, family),
    }
    return Op(name, tag, sections, REQUIRED_CHECKS[tag])


def _verify_op(source: Op, psi_path: Path, suffix: str = "") -> Op:
    name = f"verify-{source.name}{suffix}"
    sections = {
        "scenario": {"name": name, "tag": "Verify"},
        "domain": dict(source.sections["domain"]),
        "grid": dict(source.sections["grid"]),
        "verify": {"psi_csv": str(psi_path)},
    }
    return Op(name, "Verify", sections, REQUIRED_CHECKS["Verify"])


def _atlas_op(n: int) -> Op:
    name = f"atlas-n{n}"
    sections = {
        "scenario": {"name": name, "tag": "AppendixAtlas"},
        "domain": dict(_FINITE),
        "grid": _grid(n, {}),
    }
    return Op(name, "AppendixAtlas", sections, REQUIRED_CHECKS["AppendixAtlas"])


def _slide_op(n: int) -> Op:
    """Slide as shipped but for n: its sec_spot_value oracle assumes the
    shipped translation xi = (1, 1), so nothing here is jittered."""
    name = f"slide-n{n}"
    sections = {
        "scenario": {"name": name, "tag": "Slide"},
        "domain": dict(_FINITE),
        "slide": {"profile": "sec", "n": str(n), "xi1": "1.0", "xi2": "1.0",
                  "taus": SLIDE_TAUS},
    }
    return Op(name, "Slide", sections, REQUIRED_CHECKS["Slide"])


def _solver(rng, perturbation: float) -> dict:
    return {"tol": "1e-10", "perturbation": _jit(rng, perturbation),
            "seed": str(rng.randrange(2**31))}


def _solve_op(rng, tag: str, n: int) -> Op:
    name = f"{tag.lower()}-n{n}"
    if tag == "Thm1i":
        domain = {"a": "1", "b": "2", "theta0": "pi/2"}
        family = None
        solver = dict(_solver(rng, 0.1), b=_jit(rng, 1.0))
    elif tag == "Thm1ii":
        domain = dict(_FINITE)
        family = {"kind": "tan", "v": _jit(rng, 1.0), "p": "0.0", "c": "0.0"}
        solver = _solver(rng, 0.05)
    else:
        domain = dict(_FINITE)
        family = {"kind": "cos_power", "alpha": _jit(rng, 2.0), "c1": _jit(rng, 1.0),
                  "c2": "0.0"}
        solver = _solver(rng, 0.05)
    sections = {"scenario": {"name": name, "tag": tag}, "domain": domain,
                "grid": _grid(n, {})}
    if family:
        sections["family"] = family
    sections["solver"] = solver
    return Op(name, tag, sections, REQUIRED_CHECKS[tag])


def _cor1(rng, side: int) -> Op:
    """Cor1 with c^2 + 2p = -1 (side < 0) or = +kappa^2 (side > 0).

    On the negative side kappa stays 1 as shipped, so that the fixed
    points f = +-1 sit on the f0 grid, and c stays in [1, 1.05]: larger
    kappa/c breaks the w_equation_residual threshold.  The positive side
    has no periodic members and every member blows up before 2*pi.
    """
    c = rng.uniform(1.0, 1.05)
    kappa2 = -1.0 if side < 0 else rng.uniform(0.95, 1.05)
    p = (kappa2 - c * c) / 2.0
    name = "cor1-bound" if side < 0 else "cor1-blowup"
    sections = {
        "scenario": {"name": name, "tag": "Cor1"},
        "ode": {"c": repr(c), "p": repr(p), "f0_min": "-2.0", "f0_max": "2.0",
                "f0_count": "41", "step": "1e-3"},
    }
    required = REQUIRED_CHECKS["Cor1"] + (("w_equation_residual",) if side < 0 else ())
    return Op(name, "Cor1", sections, required)


def build(workload: str, seed: int, op_root: Path) -> Workload:
    """The seeded round of ``workload``; ``op_root`` is where ops write.

    Verify ops read the stream field that an earlier op of the round
    wrote under ``op_root``, so the path is part of their config.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-sweep":
        return _certify_sweep(rng, op_root)
    if workload == "solve-ladder":
        return _solve_ladder(rng)
    return _mixed_batch(rng, op_root)


def _certify_sweep(rng, op_root: Path) -> Workload:
    ops, probes = [], []
    for spec in FAMILY_TAGS:
        for n in CERTIFY_SIZES:
            op = _family_op(rng, spec, n)
            ops.append(op)
            if spec[0] in VERIFY_TAGS and n * n < 512 * 512:
                ops.append(_verify_op(op, op_root / op.name / "stream.csv"))
    ops += [_atlas_op(n) for n in CERTIFY_SIZES]
    ops += [_slide_op(n) for n in SLIDE_SIZES]
    # Known defect: at 513^2 nodes write_field silently writes .npy, and
    # Verify cannot read the export by either name.
    big = _family_op(rng, next(t for t in FAMILY_TAGS if t[0] == VERIFY_TAGS[0]), 512)
    big.name = "probe-" + big.name
    big.sections["scenario"]["name"] = big.name
    probes = [
        big,
        _verify_op(big, op_root / big.name / "stream.csv", "-csv"),
        _verify_op(big, op_root / big.name / "stream.npy", "-npy"),
    ]
    first_verify = next(k for k, op in enumerate(ops) if op.tag == "Verify")
    warmup = ops[first_verify - 1:first_verify + 1]
    return Workload("certify-sweep", ops, warmup, probes=probes)


def _solve_ladder(rng) -> Workload:
    ops = []
    for n in SOLVE_SIZES:
        for tag in ("Thm1i", "Thm1ii", "Thm2_A1"):
            op = _solve_op(rng, tag, n)
            if (tag, n) == ("Thm2_A1", 384):
                # Known defect: the absolute Newton tol sits below the
                # roundoff floor at this size, so the solve stalls.
                op.name = "probe-" + op.name
                op.sections["scenario"]["name"] = op.name
                probe = op
            else:
                ops.append(op)
    return Workload("solve-ladder", ops, [ops[1]], probes=[probe])


def _mixed_batch(rng, op_root: Path) -> Workload:
    ops = [_solve_op(rng, tag, 64) for tag in ("Thm1i", "Thm1ii", "Thm2_A1")]
    ops += [_family_op(rng, spec, 128) for spec in FAMILY_TAGS]
    ops += [_cor1(rng, -1), _cor1(rng, +1), _atlas_op(256), _slide_op(500)]
    source = next(op for op in ops if op.tag == "Thm4_B3")
    ops.append(_verify_op(source, op_root / "batch" / source.name / "stream.csv"))
    warmup = [ops[1], ops[3]]
    return Workload("mixed-batch", ops, warmup, batch=True)


def batch_ini(paths) -> str:
    """A ``[batch]`` config listing scenario INI files in run order."""
    return "[batch]\nscenarios = " + ", ".join(str(p) for p in paths) + "\n"
