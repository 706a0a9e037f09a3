"""Sector-type domains and log-polar computational grids.

The region is {(r, theta): a < r < b, 0 < theta < theta0} with
0 <= a < b <= inf and theta0 in (0, 2*pi].  All discretization happens in
s = ln r, so infinite domains are truncated in s and every transformed
operator has constant coefficients.  theta0 = 2*pi is treated as a slit
annulus: theta = 0 and theta = 2*pi remain distinct boundary edges.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, InvalidAngle, InvalidRadii

TWO_PI = 2.0 * math.pi

#: default half-width (in s) of the truncation window for infinite domains
DEFAULT_CLIP_HALFWIDTH = 4.0

#: minimum cell count per direction required by the solver stencils
MIN_CELLS = 8


@dataclass(frozen=True)
class SectorDomain:
    """Validated sector-type region."""

    a: float
    b: float
    theta0: float


def make_sector(a: float, b: float, theta0: float) -> SectorDomain:
    """Validate (a, b, theta0) and build the domain.

    Raises InvalidRadii unless 0 <= a < b <= inf, and InvalidAngle unless
    0 < theta0 <= 2*pi.
    """
    if math.isnan(a) or math.isnan(b) or a < 0 or a >= b:
        raise InvalidRadii(f"need 0 <= a < b <= inf, got a={a}, b={b}")
    if not (0.0 < theta0 <= TWO_PI + 1e-15):
        raise InvalidAngle(f"opening angle must lie in (0, 2*pi], got {theta0}")
    return SectorDomain(float(a), float(b), min(float(theta0), TWO_PI))


@dataclass(frozen=True)
class LogPolarGrid:
    """Uniform rectangle in (s, theta) = (ln r, theta) coordinates.

    Node (i, j) sits at (s_min + i*h_s, j*h_theta) for i in 0..n_s,
    j in 0..n_theta.  For a = 0 or b = inf the bounds record the
    truncation levels actually used.
    """

    s_min: float
    s_max: float
    n_s: int
    n_theta: int
    theta0: float

    def __post_init__(self):
        if not (self.s_min < self.s_max):
            raise GridError(f"need s_min < s_max, got [{self.s_min}, {self.s_max}]")
        if self.n_s < MIN_CELLS or self.n_theta < MIN_CELLS:
            raise GridError(
                f"stencils need at least {MIN_CELLS} cells per direction, "
                f"got n_s={self.n_s}, n_theta={self.n_theta}"
            )

    @property
    def h_s(self) -> float:
        return (self.s_max - self.s_min) / self.n_s

    @property
    def h_theta(self) -> float:
        return self.theta0 / self.n_theta

    @property
    def shape(self) -> tuple[int, int]:
        """Node-array shape (s-major)."""
        return (self.n_s + 1, self.n_theta + 1)

    @cached_property
    def s_nodes(self) -> np.ndarray:
        return self.s_min + self.h_s * np.arange(self.n_s + 1)

    @cached_property
    def theta_nodes(self) -> np.ndarray:
        return self.h_theta * np.arange(self.n_theta + 1)

    @cached_property
    def r_nodes(self) -> np.ndarray:
        return np.exp(self.s_nodes)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, TH) node coordinate arrays of shape ``self.shape``."""
        return np.meshgrid(self.s_nodes, self.theta_nodes, indexing="ij")

    def metadata(self, dom: SectorDomain | None = None) -> dict:
        meta = {
            "s_min": self.s_min,
            "s_max": self.s_max,
            "n_s": self.n_s,
            "n_theta": self.n_theta,
            "theta0": self.theta0,
        }
        if dom is not None:
            meta["a"] = dom.a
            meta["b"] = dom.b if math.isfinite(dom.b) else "inf"
        return meta


def build_grid(dom: SectorDomain, n_s: int, n_theta: int,
               s_min: float | None = None, s_max: float | None = None) -> LogPolarGrid:
    """Grid covering [s_min, s_max] x [0, theta0] for the given domain.

    A finite end fixes its own limit, s_min = ln a for a > 0 and
    s_max = ln b for b < inf; a limit given for it must match to 1e-12.
    An infinite end (a = 0 or b = inf) is truncated at the given limit,
    by default DEFAULT_CLIP_HALFWIDTH beyond the finite end's log (or
    beyond 0 when both ends are infinite).
    """
    ln_a = math.log(dom.a) if dom.a > 0 else None
    ln_b = math.log(dom.b) if math.isfinite(dom.b) else None
    centre = next((v for v in (ln_a, ln_b) if v is not None), 0.0)
    return LogPolarGrid(
        _s_limit("s_min", s_min, ln_a, centre - DEFAULT_CLIP_HALFWIDTH),
        _s_limit("s_max", s_max, ln_b, centre + DEFAULT_CLIP_HALFWIDTH),
        int(n_s), int(n_theta), dom.theta0,
    )


def _s_limit(name: str, given, fixed, default) -> float:
    """The grid's s-limit at one end: ``fixed`` (the log of a finite end)
    if there is one, else ``given``, else ``default``."""
    if fixed is None:
        return default if given is None else float(given)
    if given is not None and not math.isclose(given, fixed, abs_tol=1e-12):
        raise GridError(f"{name} = {given!r} contradicts the finite end at s = {fixed!r}")
    return fixed


def cumulative_trapezoid(y: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid-rule integral of the 1-D samples ``y`` (node spacing ``h``)
    from the first node; same length as ``y``, starting at 0."""
    y = np.asarray(y, dtype=float)
    return np.concatenate([[0.0], np.cumsum((y[1:] + y[:-1]) * (h / 2.0))])


def repr_csv(header_rows, *columns) -> str:
    """CSV text of ``header_rows`` (through ``csv.writer``, minimal quoting)
    followed by one row per index of the equal-length ``columns``, each
    value written as ``repr(float)`` so a reread gives back the same bits."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(header_rows)
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    line = ",".join(["{!r}"] * len(columns)) + "\n"
    buf.write((line * len(rows)).format(*rows.ravel().tolist()))
    return buf.getvalue()


def sorted_json(obj) -> str:
    """JSON text of ``obj``, the one format of reports and grid sidecars:
    sorted keys, indent 2 and a trailing newline; a numpy scalar or array is
    written as its Python value or list."""
    return json.dumps(obj, sort_keys=True, indent=2, default=lambda o: o.tolist()) + "\n"
