"""Byte-level contract of the CSV exports: the field, profile and g-scatter
writers must emit exactly what a per-row ``csv.writer`` loop over
``repr(float(x))`` emits, and a field must read back bit for bit."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import AngularProfile, ScalarField, field_to_csv
from sectorflow.domain import LogPolarGrid
from sectorflow.fields import field_from_csv
from sectorflow.rigidity import GRecovery

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-320, 1e16, -1e16, 0.1, 1 / 3,
               math.inf, -math.inf, math.nan, 2.0**53 + 2, -123456.789]


def _edge_column(n, seed):
    """``n`` values: every edge value, then seeded values of mixed scale."""
    rng = np.random.default_rng(seed)
    rest = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return np.concatenate([EDGE_VALUES, rest])[:n]


# the writers as they were before the shared writer, kept as the oracle
def _loop_writer(header_rows, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in header_rows:
        w.writerow(row)
    for row in rows:
        w.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def _field_oracle(field):
    g = field.grid
    rows = ((s, th, field.vals[i, j]) for i, s in enumerate(g.s_nodes)
            for j, th in enumerate(g.theta_nodes))
    return _loop_writer([["s", "theta", "value"]], rows)


def _profile_oracle(prof, kind, params):
    meta = ["# alpha", repr(prof.alpha), "p", repr(prof.p), "kind", kind,
            "params", repr(params)]
    rows = zip(prof.theta_nodes, prof.v_vals, prof.f_vals)
    return _loop_writer([meta, ["theta", "v", "f"]], rows)


def _scatter_oracle(rec):
    return _loop_writer([["z", "g"]], zip(rec.z_samples, rec.g_samples))


@pytest.mark.parametrize("n_s, n_theta", [(8, 8), (80, 70), (9, 600)])  # 600: a wide row
def test_field_bytes_match_row_loop(n_s, n_theta):
    grid = LogPolarGrid(-0.3, 1.7, n_s, n_theta, 2.0)
    field = ScalarField(grid, _edge_column(grid.shape[0] * grid.shape[1], 1)
                        .reshape(grid.shape))
    assert field_to_csv(field) == _field_oracle(field)


@pytest.mark.parametrize(
    "params",
    [None, {}, {"v": 1.0, "C": 0.5}, {"alpha": 2.0}, {"kind": 'a "quoted", name'}],
)
@pytest.mark.parametrize("n", [14, 5000])
def test_profile_bytes_match_row_loop(params, n):
    prof = AngularProfile(2.5, -0.1, np.linspace(0.0, 1.0, n),
                          _edge_column(n, 2), _edge_column(n, 3)[::-1].copy())
    assert prof.to_csv("tan", params) == _profile_oracle(prof, "tan", params)


@pytest.mark.parametrize("n", [14, 4097])
def test_g_scatter_bytes_match_row_loop(n):
    rec = GRecovery(_edge_column(n, 4), _edge_column(n, 5), 0.0, {}, None, 1.0)
    assert rec.to_csv() == _scatter_oracle(rec)


@st.composite
def _fields(draw):
    n_s, n_theta = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    s_min = draw(st.floats(-3.0, 3.0))
    grid = LogPolarGrid(s_min, s_min + draw(st.floats(0.1, 5.0)), n_s, n_theta,
                        draw(st.floats(0.1, 2.0 * math.pi)))
    vals = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=grid.shape[0] * grid.shape[1],
                         max_size=grid.shape[0] * grid.shape[1]))
    return ScalarField(grid, np.array(vals, dtype=float).reshape(grid.shape))


@settings(max_examples=60, deadline=None)
@given(field=_fields())
def test_field_csv_round_trip_is_bitwise(field):
    """Reading an export back gives the same bits, sign of zero included."""
    back = field_from_csv(field_to_csv(field), field.grid)
    np.testing.assert_array_equal(back.vals.view(np.int64), field.vals.view(np.int64))
