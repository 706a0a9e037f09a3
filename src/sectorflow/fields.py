"""Grid-sampled fields on log-polar rectangles: closed-form stream and
velocity samples, the 5-point stencil (one term table and its interpreter,
which :mod:`.elliptic`'s Newton solver evaluates too), the polar Laplacian
(e^{-2s} times that stencil in (s, theta) = (ln r, theta), NaN on the edge
nodes) and field I/O."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import LogPolarGrid, sorted_json
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


#: rows (in homogeneity_fit, rays) that a blocked kernel takes at a time, so
#: that its scratch is one block, not one grid
BLOCK_ROWS = 64


def row_blocks(n: int) -> list[slice]:
    """Slices of BLOCK_ROWS indices covering range(n) (on an axis of n, the last ends at n)."""
    return [slice(r, r + BLOCK_ROWS) for r in range(0, n, BLOCK_ROWS)]


def _stencil_terms(b1: float, c0: float, h_s: float, h_theta: float):
    """d_ss + d_thth + b1 d_s + c0 as (coefficient, denominator, taps)
    terms, in evaluation order.  A tap (di, dj, w) weights Psi at the node
    di s-rows and dj theta-columns away.  A term is coefficient * (sum of
    w * Psi[tap]) / denominator; only a term's first tap has a weight other
    than 1, and the b1 and c0 terms are left out when zero."""
    terms = [
        (1.0, h_s**2, [(0, 0, -2.0), (1, 0, 1.0), (-1, 0, 1.0)]),
        (1.0, h_theta**2, [(0, 0, -2.0), (0, 1, 1.0), (0, -1, 1.0)]),
    ]
    if b1 != 0.0:
        terms.append((b1, 2.0 * h_s, [(-1, 0, -1.0), (1, 0, 1.0)]))
    if c0 != 0.0:
        terms.append((1.0, 1.0, [(0, 0, c0)]))
    return terms


def _apply_stencil(terms, Q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The stencil at the interior nodes of ``Q``, whose first and last rows
    are the s-rows before the first and after the last interior row, and
    whose first and last columns are the theta-edges.  Evaluated in place,
    in the table's order, into ``out`` (fresh if None) and one scratch
    buffer: a term's first tap is weighted, its later (unit) taps are added,
    and a unit coefficient or denominator is skipped (it moves no bit)."""
    n, m = Q.shape[0] - 2, Q.shape[1] - 2
    out = np.empty((n, m)) if out is None else out
    acc = np.empty((n, m))
    for t, (coef, denom, taps) in enumerate(terms):
        part = acc if t else out
        (di, dj, w), *rest = taps
        np.multiply(w, Q[1 + di:1 + di + n, 1 + dj:1 + dj + m], out=part)
        for di, dj, _ in rest:
            part += Q[1 + di:1 + di + n, 1 + dj:1 + dj + m]
        if coef != 1.0:
            part *= coef
        if denom != 1.0:
            part /= denom
        if t:
            out += part
    return out


def laplacian_polar(psi: ScalarField) -> ScalarField:
    """Delta psi = e^{-2s} (psi_ss + psi_thth), interior nodes only (NaN edges)."""
    g = psi.grid
    out = np.full(g.shape, np.nan)
    core, decay = out[1:-1, 1:-1], np.exp(-2.0 * g.s_nodes[1:-1])[:, None]
    terms = _stencil_terms(0.0, 0.0, g.h_s, g.h_theta)
    for b in row_blocks(g.n_s - 1):
        _apply_stencil(terms, psi.vals[b.start:b.stop + 2], out=core[b])
        core[b] *= decay[b]
    return ScalarField(g, out)


def sample_stream(sol: HomogeneousSolution, grid: LogPolarGrid) -> ScalarField:
    """Closed-form stream function sampled at the grid nodes."""
    return ScalarField(grid, sol.stream(grid.r_nodes[:, None], grid.theta_nodes[None, :]))


def sample_velocity(sol: HomogeneousSolution, grid: LogPolarGrid) -> VectorField:
    """Closed-form velocity sampled at the grid nodes."""
    ur, ut, _ = sol.velocity_pressure(grid.r_nodes[:, None], grid.theta_nodes[None, :])
    return VectorField(grid, ur, ut)


def field_to_csv(field: ScalarField) -> str:
    """(s, theta, value) rows of repr floats: the text :func:`write_field` writes."""
    return "".join(_csv_lines(field))


def _csv_lines(field: ScalarField):
    """The CSV header, then the lines of one s-row at a time; one row
    template holds each theta's repr."""
    g = field.grid
    row = "".join(f"{{0}},{th!r},{{{j}!r}}\n" for j, th in enumerate(g.theta_nodes.tolist(), 1))
    yield "s,theta,value\n"
    for s, vals in zip(g.s_nodes.tolist(), field.vals):
        yield row.format(repr(s), *vals.tolist())


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
            rows = np.loadtxt(_lines(text), delimiter=",", skiprows=1, ndmin=2, comments=None)
        # loadtxt skips a blank line, which would shift every later line number
        if len(rows) != n_rows or rows.size and rows.shape[1] != 3:
            raise ValueError("a blank line or a row not of three numbers")
    except ValueError as exc:
        raise _malformed(text, exc) from exc
    s, th, v = rows.reshape(-1, 3).T
    x = (s - grid.s_min) / grid.h_s
    y = th / grid.h_theta
    i, j = np.rint(x), np.rint(y)
    x -= i  # x and y become the offsets from the nearest node
    y -= j
    off = ~((np.abs(x, out=x) <= _NODE_TOL) & (np.abs(y, out=y) <= _NODE_TOL)
            & (i >= 0) & (i <= grid.n_s) & (j >= 0) & (j <= grid.n_theta))
    del x, y
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


def _lines(text: str):
    """The lines of ``text.split("\n")``, split about 64 K characters at a time
    (every line held at once would take twice the text's memory)."""
    start = 0
    while (end := text.find("\n", start + 65536)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    yield from text[start:].split("\n")


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


def write_field(field: ScalarField, path: str | Path) -> Path:
    """Write ``field`` for :func:`read_field`, in the format the suffix of
    ``path`` names: the row-major binary dump plus a .json grid sidecar for
    a .npy path, else CSV text.  Returns ``path``."""
    path = Path(path)
    if path.suffix != ".npy":
        with path.open("w") as file:
            file.writelines(_csv_lines(field))
        return path
    np.save(path, np.ascontiguousarray(field.vals))
    path.with_suffix(".json").write_text(sorted_json(field.grid.metadata()))
    return path


def read_field(path: str | Path, grid: LogPolarGrid) -> ScalarField:
    """Read an export of :func:`write_field` onto ``grid``: a .npy dump,
    whose JSON sidecar must parse to ``grid.metadata()`` (in any JSON
    layout) and whose array shape must be the grid's, or else CSV text.
    Raises GridMismatch for another grid's export or a sidecar that is not
    JSON, and GridError naming the path for a CSV file or .npy sidecar that
    is not UTF-8 text, for a .npy that numpy cannot read or that does not
    hold a real floating-point array, and for a non-finite value."""
    path = Path(path)
    if path.suffix != ".npy":
        return field_from_csv(_utf8(path), grid)
    sidecar = path.with_suffix(".json")
    try:
        meta = json.loads(_utf8(sidecar))
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise GridMismatch(f"{sidecar} is not a JSON grid description: {exc}") from exc
    if meta != grid.metadata():
        raise GridMismatch(f"{sidecar} describes another grid than {grid.metadata()}")
    try:
        vals = np.load(path)
    except (ValueError, EOFError) as exc:  # empty, truncated or pickled
        raise GridError(f"{path} is not a readable .npy array: {exc}") from exc
    if not isinstance(vals, np.ndarray) or vals.dtype.kind != "f":
        raise GridError(f"{path} holds {getattr(vals, 'dtype', 'archive')} data, "
                        "not a real floating-point array")
    if vals.shape != grid.shape:
        raise GridMismatch(f"{path} holds a {vals.shape} array, not the grid's {grid.shape}")
    if not np.isfinite(vals).all():
        node = np.unravel_index(np.argmax(~np.isfinite(vals)), vals.shape)
        raise GridError(f"{path} holds a non-finite value at node {tuple(map(int, node))}")
    return ScalarField(grid, vals)


def _utf8(path: Path) -> str:
    """The text of ``path``; GridError naming it if it is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GridError(f"{path} is not UTF-8 text: {exc}") from exc
