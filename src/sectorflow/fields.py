"""Grid-sampled fields on log-polar rectangles and their calculus.

All derivatives are taken in (s, theta) with s = ln r, where every polar
operator has constant coefficients; r-space formulas are recovered through
the factors e^{-s} and e^{-2s}.  Stencils are second-order central in the
interior and second-order one-sided at edges, so derived fields exist up
to (but not including) the corners; corner nodes are excluded from all
max-norms.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import LogPolarGrid
from .errors import GridError, GridMismatch
from .exact import HomogeneousSolution


@dataclass(frozen=True)
class ScalarField:
    """Node-indexed scalar samples, s-major: vals[i, j] at (s_i, theta_j)."""

    grid: LogPolarGrid
    vals: np.ndarray

    def __post_init__(self):
        if self.vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.vals.shape} != grid shape {self.grid.shape}"
            )


@dataclass(frozen=True)
class VectorField:
    """Polar velocity samples (u_r, u_theta) on grid nodes, s-major."""

    grid: LogPolarGrid
    ur_vals: np.ndarray
    utheta_vals: np.ndarray

    def __post_init__(self):
        if (
            self.ur_vals.shape != self.grid.shape
            or self.utheta_vals.shape != self.grid.shape
        ):
            raise ValueError("component arrays must match the grid shape")

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.ur_vals, self.utheta_vals)


@dataclass(frozen=True)
class Alpha1Frame:
    """Working frame Psi = psi(e^s, theta) - c*s."""

    c: float


@dataclass(frozen=True)
class GeneralFrame:
    """Working frame Psi = psi(e^s, theta) * e^{s(alpha-1)}."""

    alpha: float


@dataclass(frozen=True)
class RawFrame:
    """Identity frame Psi = psi(e^s, theta)."""


FrameTag = Alpha1Frame | GeneralFrame | RawFrame


def _mask_corners(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[0, 0] = out[0, -1] = out[-1, 0] = out[-1, -1] = np.nan
    return out


def interior_max(vals: np.ndarray) -> float:
    """Max-norm ignoring NaN-flagged (boundary/corner) nodes."""
    finite = vals[np.isfinite(vals)]
    return float(np.max(np.abs(finite))) if finite.size else 0.0


def _d_s(vals: np.ndarray, h: float) -> np.ndarray:
    return np.gradient(vals, h, axis=0, edge_order=2)


def _d_theta(vals: np.ndarray, h: float) -> np.ndarray:
    return np.gradient(vals, h, axis=1, edge_order=2)


def velocity_from_stream(psi: ScalarField) -> VectorField:
    """u_theta = psi_r, u_r = -(1/r) psi_theta via differences in (s, theta)."""
    g = psi.grid
    inv_r = np.exp(-g.s_nodes)[:, None]
    ut = inv_r * _d_s(psi.vals, g.h_s)
    ur = -inv_r * _d_theta(psi.vals, g.h_theta)
    return VectorField(g, ur, ut)


def divergence_defect(u: VectorField) -> np.ndarray:
    """Discrete r-scaled divergence d_r(r u_r) + d_theta(u_theta)."""
    g = u.grid
    e_s = np.exp(g.s_nodes)[:, None]
    return (1.0 / e_s) * _d_s(e_s * u.ur_vals, g.h_s) + _d_theta(
        u.utheta_vals, g.h_theta
    )


def laplacian_polar(psi: ScalarField) -> ScalarField:
    """Delta psi = e^{-2s} (psi_ss + psi_thth), interior nodes only (NaN edges)."""
    g = psi.grid
    out = np.full(g.shape, np.nan)
    v = psi.vals
    core = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / g.h_s**2 + (
        v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]
    ) / g.h_theta**2
    out[1:-1, 1:-1] = np.exp(-2.0 * g.s_nodes[1:-1])[:, None] * core
    return ScalarField(g, out)


def euler_residual(
    u: VectorField, P: ScalarField
) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Residual fields of the polar momentum and continuity equations.

    mom_r = u_r u_r,r + (u_t/r) u_r,th - u_t^2/r + P_r
    mom_t = u_r u_t,r + (u_t/r) u_t,th + u_t u_r / r + P_th / r
    div   = d_r(r u_r) + d_theta(u_t)

    Central differences inside, one-sided at edges, NaN at corners.
    """
    g = u.grid
    inv_r = np.exp(-g.s_nodes)[:, None]
    ur, ut = u.ur_vals, u.utheta_vals
    dr = lambda a: inv_r * _d_s(a, g.h_s)
    dth = lambda a: _d_theta(a, g.h_theta)
    mom_r = ur * dr(ur) + inv_r * ut * dth(ur) - inv_r * ut**2 + dr(P.vals)
    mom_t = ur * dr(ut) + inv_r * ut * dth(ut) + inv_r * ut * ur + inv_r * dth(P.vals)
    div = divergence_defect(u)
    return (
        ScalarField(g, _mask_corners(mom_r)),
        ScalarField(g, _mask_corners(mom_t)),
        ScalarField(g, _mask_corners(div)),
    )


def from_working(s: np.ndarray, Psi: np.ndarray, tag: FrameTag) -> np.ndarray:
    """Stream values psi from working-frame values Psi at log-radii ``s``
    (``s`` broadcasts against ``Psi``): Psi + c s, Psi e^{s(1-alpha)} or a
    copy of Psi.  This is the nonlinearity's argument in the solver."""
    if isinstance(tag, Alpha1Frame):
        return Psi + tag.c * s
    if isinstance(tag, GeneralFrame):
        return Psi * np.exp(-s * (tag.alpha - 1.0))
    return Psi.copy()


def sample_stream(sol: HomogeneousSolution, grid: LogPolarGrid) -> ScalarField:
    """Closed-form stream function sampled at the grid nodes."""
    return ScalarField(grid, sol.stream(grid.r_nodes[:, None], grid.theta_nodes[None, :]))


def sample_velocity(
    sol: HomogeneousSolution, grid: LogPolarGrid
) -> tuple[VectorField, ScalarField]:
    """Closed-form (velocity, pressure) sampled at the grid nodes."""
    ur, ut, P = sol.velocity_pressure(grid.r_nodes[:, None], grid.theta_nodes[None, :])
    return VectorField(grid, ur, ut), ScalarField(grid, np.broadcast_to(P, grid.shape).copy())


def field_to_csv(field: ScalarField) -> str:
    """(s, theta, value) rows of repr floats; one row template holds each theta's repr."""
    g = field.grid
    row = "".join(f"{{0}},{th!r},{{{j}!r}}\n" for j, th in enumerate(g.theta_nodes.tolist(), 1))
    return "s,theta,value\n" + "".join(
        row.format(repr(s), *vals) for s, vals in zip(g.s_nodes.tolist(), field.vals.tolist()))


#: largest distance, in cells, of a CSV row's (s, theta) from its grid node
_NODE_TOL = 1e-6


def field_from_csv(text: str, grid: LogPolarGrid) -> ScalarField:
    """Read the (s, theta, value) rows of :func:`field_to_csv` onto ``grid``.
    Raises GridError naming the line for a row that is not three numbers
    (a ``#`` comment included) or a non-finite value, and for a node with
    two rows; GridMismatch (another grid's export) naming the line for a
    row off the grid, and for a node without a row."""
    n_rows = text.count("\n", 0, len(text) - text.endswith("\n"))  # lines after the header
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a text without rows: checked below
            rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2, comments=None)
        # loadtxt skips a blank line, which would shift every later line number
        if len(rows) != n_rows or rows.size and rows.shape[1] != 3:
            raise ValueError("a blank line or a row not of three numbers")
    except ValueError as exc:
        raise _malformed(text, exc) from exc
    s, th, v = rows.reshape(-1, 3).T
    x = (s - grid.s_min) / grid.h_s
    y = th / grid.h_theta
    i, j = np.rint(x), np.rint(y)
    off = ~((np.abs(x - i) <= _NODE_TOL) & (np.abs(y - j) <= _NODE_TOL)
            & (i >= 0) & (i <= grid.n_s) & (j >= 0) & (j <= grid.n_theta))
    if off.any():
        k = int(np.argmax(off))
        raise GridMismatch(f"CSV line {k + 2} (s={float(s[k])!r}, theta={float(th[k])!r}) "
                           "is not a node of the grid")
    if not np.isfinite(v).all():
        k = int(np.argmax(~np.isfinite(v)))
        raise GridError(f"CSV line {k + 2} holds "
                        + ("a NaN value" if np.isnan(v[k]) else "an infinite value"))
    node = (i * grid.shape[1] + j).astype(int)
    vals = np.full(grid.shape, np.nan)
    if np.bincount(node, minlength=vals.size).max() > 1:
        raise GridError("more than one CSV row for a grid node")
    if node.size < vals.size:
        raise GridMismatch(f"{vals.size - node.size} of {vals.size} grid nodes have no CSV row")
    vals.flat[node] = v
    return ScalarField(grid, vals)


def _malformed(text: str, exc: ValueError) -> GridError:
    """GridError naming the first data line of ``text`` that is not three numbers."""
    lines = text.split("\n")
    for k, line in enumerate(lines[1:len(lines) - text.endswith("\n")], 2):
        try:
            if not line or np.loadtxt([line], delimiter=",", comments=None).size != 3:
                raise ValueError
        except ValueError:
            return GridError(f"CSV line {k} is not three numbers: {line!r}")
    return GridError(f"malformed field CSV: {exc}")


#: node count beyond which exports switch to binary + JSON sidecar
BINARY_EXPORT_NODES = 512 * 512


def write_field(field: ScalarField, path: str | Path) -> Path:
    """Write CSV for small grids, row-major binary + sidecar for large ones.

    Returns the path actually written (binary dumps get a .npy suffix and
    a .json sidecar with the grid metadata).
    """
    path = Path(path)
    n_nodes = field.grid.shape[0] * field.grid.shape[1]
    if n_nodes < BINARY_EXPORT_NODES:
        path.write_text(field_to_csv(field))
        return path
    bin_path = path.with_suffix(".npy")
    np.save(bin_path, np.ascontiguousarray(field.vals))
    path.with_suffix(".json").write_text(field.grid.to_json())
    return bin_path


def read_field(path: str | Path, grid: LogPolarGrid) -> ScalarField:
    """Read an export of :func:`write_field` onto ``grid``: a .npy dump,
    whose JSON sidecar must describe ``grid``, or else CSV text.  Raises
    GridMismatch for another grid's export and GridError for a non-finite
    value."""
    path = Path(path)
    if path.suffix != ".npy":
        return field_from_csv(path.read_text(), grid)
    sidecar = path.with_suffix(".json")
    if sidecar.read_text() != grid.to_json():
        raise GridMismatch(f"{sidecar} describes another grid than {grid.to_json()}")
    vals = np.load(path)
    if not np.isfinite(vals).all():
        node = np.unravel_index(np.argmax(~np.isfinite(vals)), vals.shape)
        raise GridError(f"{path} holds a non-finite value at node {tuple(map(int, node))}")
    return ScalarField(grid, vals)
