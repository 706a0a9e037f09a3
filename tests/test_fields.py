import math
import warnings

import numpy as np
import pytest

from sectorflow import (
    Alpha1Frame,
    FamilyKind,
    GeneralFrame,
    RawFrame,
    ScalarField,
    VectorField,
    construct_exact,
    euler_residual,
    field_to_csv,
    laplacian_polar,
    sample_stream,
    sample_velocity,
    velocity_from_stream,
)
from sectorflow.domain import LogPolarGrid
from sectorflow.errors import GridError, GridMismatch
from sectorflow.fields import (field_from_csv, from_working, interior_max, read_field,
                               write_field)


def _grid(n=64, theta0=math.pi / 2):
    return LogPolarGrid(0.0, math.log(2), n, n, theta0)


def _theta_field(grid):
    _, TH = grid.mesh()
    return ScalarField(grid, TH.copy())


class TestVelocityFromStream:
    def test_linear_theta_stream(self):
        grid = _grid()
        u = velocity_from_stream(_theta_field(grid))
        S, _ = grid.mesh()
        np.testing.assert_allclose(u.ur_vals, -np.exp(-S), atol=1e-12)
        np.testing.assert_allclose(u.utheta_vals, 0.0, atol=1e-12)

    def test_log_radius_stream(self):
        grid = _grid()
        S, _ = grid.mesh()
        u = velocity_from_stream(ScalarField(grid, 2.0 * S))
        np.testing.assert_allclose(u.utheta_vals, 2.0 * np.exp(-S), atol=1e-12)
        np.testing.assert_allclose(u.ur_vals, 0.0, atol=1e-12)

    def test_matches_closed_form_velocity(self):
        grid = _grid(128, 1.0)
        sol = construct_exact(
            FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0
        )
        u_num = velocity_from_stream(sample_stream(sol, grid))
        u_ref, _ = sample_velocity(sol, grid)
        h2 = grid.h_theta**2 + grid.h_s**2
        assert np.max(np.abs(u_num.ur_vals - u_ref.ur_vals)) < 50 * h2
        assert np.max(np.abs(u_num.utheta_vals - u_ref.utheta_vals)) < 50 * h2


class TestLaplacian:
    def test_harmonic_log(self):
        grid = _grid()
        S, _ = grid.mesh()
        lap = laplacian_polar(ScalarField(grid, S.copy()))
        assert interior_max(lap.vals) < 1e-11

    def test_harmonic_theta(self):
        grid = _grid()
        lap = laplacian_polar(_theta_field(grid))
        assert interior_max(lap.vals) < 1e-11

    def test_tan_family_semilinear_identity(self):
        grid = LogPolarGrid(0.0, math.log(2), 128, 128, 1.0)
        S, TH = grid.mesh()
        psi = ScalarField(grid, S + np.log(np.cos(TH)))
        lap = laplacian_polar(psi)
        target = -np.exp(-2.0 * psi.vals)
        err = interior_max(np.abs(lap.vals - target))
        assert err < 100 * (grid.h_s**2 + grid.h_theta**2)


class TestEulerResidual:
    def test_exact_families_small_residual(self):
        for kind, params in [
            (FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}),
            (FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}),
        ]:
            sol = construct_exact(kind, params, 1.0)
            grid = LogPolarGrid(0.0, math.log(2), 256, 256, 1.0)
            u, P = sample_velocity(sol, grid)
            mom_r, mom_t, div = euler_residual(u, P)
            scale = float(np.max(u.magnitude())) ** 2 + 1e-300
            for res in (mom_r, mom_t, div):
                assert interior_max(np.abs(res.vals)) < 1e-3 * scale

    def test_wrong_pressure_detected(self):
        grid = _grid()
        S, _ = grid.mesh()
        u = VectorField(grid, np.exp(-S), np.zeros(grid.shape))
        P = ScalarField(grid, np.zeros(grid.shape))
        mom_r, _, _ = euler_residual(u, P)
        assert interior_max(np.abs(mom_r.vals)) > 0.1

    def test_rest_state(self):
        grid = _grid()
        z = np.zeros(grid.shape)
        u = VectorField(grid, z, z.copy())
        P = ScalarField(grid, np.full(grid.shape, 3.0))
        for res in euler_residual(u, P):
            assert interior_max(np.abs(res.vals)) < 1e-13


class TestWorkingFrames:
    def test_alpha1_frame_removes_log(self):
        grid = _grid()
        S, TH = grid.mesh()
        c = 1.5
        psi = from_working(S, np.sin(TH), Alpha1Frame(c))
        np.testing.assert_allclose(psi, c * S + np.sin(TH), atol=1e-12)

    def test_general_frame_removes_power(self):
        grid = _grid()
        S, TH = grid.mesh()
        alpha = 2.0
        psi = from_working(S, np.cos(TH), GeneralFrame(alpha))
        np.testing.assert_allclose(psi, np.cos(TH) * np.exp((1 - alpha) * S), atol=1e-12)

    @pytest.mark.parametrize(
        "tag", [Alpha1Frame(0.7), GeneralFrame(2.5), RawFrame()]
    )
    def test_round_trip(self, tag):
        # from_working inverts the frames' defining maps Psi = psi - c s,
        # Psi = psi e^{s(alpha-1)} and Psi = psi; s broadcasts over theta
        grid = _grid()
        S, TH = grid.mesh()
        psi = np.sin(S) * np.cos(TH) + S
        if isinstance(tag, Alpha1Frame):
            Psi = psi - tag.c * S
        elif isinstance(tag, GeneralFrame):
            Psi = psi * np.exp(S * (tag.alpha - 1.0))
        else:
            Psi = psi
        back = from_working(grid.s_nodes[:, None], Psi, tag)
        np.testing.assert_allclose(back, psi, atol=1e-12)


class TestCsv:
    def test_round_trip(self):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        S, TH = grid.mesh()
        field = ScalarField(grid, np.sin(S) + TH)
        back = field_from_csv(field_to_csv(field), grid)
        np.testing.assert_array_equal(back.vals, field.vals)

    def test_row_off_the_grid_rejected(self):
        # a row at s = -h_s used to wrap round to the last s-row
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        text = field_to_csv(_theta_field(grid)) + f"{-grid.h_s!r},0.0,5.0\n"
        with pytest.raises(GridMismatch, match="not a node"):
            field_from_csv(text, grid)

    def test_duplicate_row_rejected(self):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        text = field_to_csv(_theta_field(grid)) + "0.0,0.1,5.0\n"
        with pytest.raises(GridError, match="more than one"):
            field_from_csv(text, grid)

    def test_missing_nodes_rejected(self):
        # an 8x8 export read on a 16x16 grid used to leave 208 nodes NaN
        coarse = LogPolarGrid(0.0, 1.0, 8, 8, 1.0)
        fine = LogPolarGrid(0.0, 1.0, 16, 16, 1.0)
        with pytest.raises(GridMismatch, match="208 of 289"):
            field_from_csv(field_to_csv(_theta_field(coarse)), fine)

    @pytest.mark.parametrize("node", [0, 40, 98])
    def test_nan_value_rejected(self, node):
        # a NaN value row used to reach Verify, whose isfinite masks dropped it
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        field = _theta_field(grid)
        field.vals.flat[node] = np.nan
        with pytest.raises(GridError, match=f"CSV line {node + 2} holds a NaN"):
            field_from_csv(field_to_csv(field), grid)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_value_rejected(self, value):
        # an infinite value used to reach Verify, whose isfinite masks dropped it
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        field = _theta_field(grid)
        field.vals[4, 5] = value
        with pytest.raises(GridError, match="CSV line 51 holds an infinite value"):
            field_from_csv(field_to_csv(field), grid)

    @pytest.mark.parametrize(
        "row", ["0.0,0.1", "0.0,zero,1.0", "0.0,0.1,1.0,2.0", "# a comment", "", " "],
        ids=["two-columns", "non-numeric", "four-columns", "comment", "blank", "space"])
    def test_malformed_row_names_its_line(self, row):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        lines = field_to_csv(_theta_field(grid)).split("\n")
        text = "\n".join(lines[:6] + [row] + lines[6:])
        with pytest.raises(GridError, match="CSV line 7 is not three numbers"):
            field_from_csv(text, grid)

    def test_rows_of_two_columns_rejected(self):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        with pytest.raises(GridError, match="CSV line 2 is not three numbers"):
            field_from_csv("s,theta\n0.0,0.0\n0.0,0.1\n", grid)

    @pytest.mark.parametrize("text", ["s,theta,value\n", "s,theta,value", ""])
    def test_header_only_text_misses_every_node(self, text):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="99 of 99 grid nodes have no CSV row"):
                field_from_csv(text, grid)

    def test_crlf_and_no_final_newline_read(self):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        field = _theta_field(grid)
        text = field_to_csv(field)
        for variant in (text.replace("\n", "\r\n"), text.rstrip("\n")):
            np.testing.assert_array_equal(field_from_csv(variant, grid).vals, field.vals)


class TestReadField:
    def test_binary_export_round_trip_is_bitwise(self, tmp_path):
        grid = LogPolarGrid(-0.3, 1.7, 512, 512, 2.0)  # 513^2 nodes: a .npy export
        vals = np.random.default_rng(0).standard_normal(grid.shape)
        vals[0, 0] = -0.0
        path = write_field(ScalarField(grid, vals), tmp_path / "stream.csv")
        assert path.name == "stream.npy" and not (tmp_path / "stream.csv").exists()
        back = read_field(path, grid)
        np.testing.assert_array_equal(back.vals.view(np.int64), vals.view(np.int64))

    def test_csv_export_read_back(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        field = _theta_field(grid)
        path = write_field(field, tmp_path / "stream.csv")
        np.testing.assert_array_equal(read_field(path, grid).vals, field.vals)

    def _dump(self, tmp_path, grid, vals):
        np.save(tmp_path / "psi.npy", vals)
        (tmp_path / "psi.json").write_text(grid.to_json())
        return tmp_path / "psi.npy"

    def test_sidecar_of_another_grid_rejected(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        path = self._dump(tmp_path, grid, _theta_field(grid).vals)
        other = LogPolarGrid(0.0, 1.0, 10, 8, 1.0)
        with pytest.raises(GridMismatch, match="another grid"):
            read_field(path, other)

    def test_missing_sidecar_is_os_error(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        path = self._dump(tmp_path, grid, _theta_field(grid).vals)
        (tmp_path / "psi.json").unlink()
        with pytest.raises(OSError):
            read_field(path, grid)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_dump_rejected(self, tmp_path, value):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        vals = _theta_field(grid).vals
        vals[3, 7] = value
        with pytest.raises(GridError, match=r"non-finite value at node \(3, 7\)"):
            read_field(self._dump(tmp_path, grid, vals), grid)
