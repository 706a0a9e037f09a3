import json
import math
import re
import warnings

import numpy as np
import pytest

from sectorflow import (
    ScalarField,
    field_to_csv,
    laplacian_polar,
)
from sectorflow.domain import LogPolarGrid, sorted_json
from sectorflow.errors import GridError, GridMismatch
from sectorflow.fields import field_from_csv, read_field, write_field


def _grid(n=64, theta0=math.pi / 2):
    return LogPolarGrid(0.0, math.log(2), n, n, theta0)


def _theta_field(grid):
    _, TH = grid.mesh()
    return ScalarField(grid, TH.copy())


class TestLaplacian:
    def test_harmonic_log(self):
        grid = _grid()
        S, _ = grid.mesh()
        lap = laplacian_polar(ScalarField(grid, S.copy()))
        assert np.nanmax(np.abs(lap.vals)) < 1e-11

    def test_harmonic_theta(self):
        grid = _grid()
        lap = laplacian_polar(_theta_field(grid))
        assert np.nanmax(np.abs(lap.vals)) < 1e-11

    def test_tan_family_semilinear_identity(self):
        grid = LogPolarGrid(0.0, math.log(2), 128, 128, 1.0)
        S, TH = grid.mesh()
        psi = ScalarField(grid, S + np.log(np.cos(TH)))
        lap = laplacian_polar(psi)
        target = -np.exp(-2.0 * psi.vals)
        err = np.nanmax(np.abs(lap.vals - target))
        assert err < 100 * (grid.h_s**2 + grid.h_theta**2)


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
        grid = LogPolarGrid(-0.3, 1.7, 512, 512, 2.0)
        vals = np.random.default_rng(0).standard_normal(grid.shape)
        vals[0, 0] = -0.0
        path = write_field(ScalarField(grid, vals), tmp_path / "stream.npy")
        assert path == tmp_path / "stream.npy"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stream.json", "stream.npy"]
        back = read_field(path, grid)
        np.testing.assert_array_equal(back.vals.view(np.int64), vals.view(np.int64))

    def test_csv_export_read_back(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        field = _theta_field(grid)
        path = write_field(field, tmp_path / "stream.csv")
        assert path.read_text() == field_to_csv(field)
        assert [p.name for p in tmp_path.iterdir()] == ["stream.csv"]
        np.testing.assert_array_equal(read_field(path, grid).vals, field.vals)

    def test_npy_path_is_binary_at_any_size(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 8, 1.0)
        vals = np.random.default_rng(1).standard_normal(grid.shape)
        vals[4, 4] = -0.0
        path = write_field(ScalarField(grid, vals), tmp_path / "psi.npy")
        assert path == tmp_path / "psi.npy"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["psi.json", "psi.npy"]
        assert (tmp_path / "psi.json").read_text() == sorted_json(grid.metadata())
        dump = path.read_bytes()
        assert dump.startswith(b"\x93NUMPY") and b"s,theta,value" not in dump
        back = read_field(path, grid)
        np.testing.assert_array_equal(back.vals.view(np.int64), vals.view(np.int64))

    def _dump(self, tmp_path, grid, vals):
        np.save(tmp_path / "psi.npy", vals)
        (tmp_path / "psi.json").write_text(sorted_json(grid.metadata()))
        return tmp_path / "psi.npy"

    def test_sidecar_of_another_grid_rejected(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        path = self._dump(tmp_path, grid, _theta_field(grid).vals)
        other = LogPolarGrid(0.0, 1.0, 10, 8, 1.0)
        with pytest.raises(GridMismatch, match="another grid"):
            read_field(path, other)

    def test_compact_sidecar_reads_back(self, tmp_path):
        """A sidecar in the compact one-line layout that write_field wrote
        before reports and sidecars shared one serializer still reads: the
        sidecar is checked by value, not by its bytes."""
        grid = LogPolarGrid(0.0, math.log(2), 8, 10, 1.0)
        vals = np.random.default_rng(2).standard_normal(grid.shape)
        path = self._dump(tmp_path, grid, vals)
        (tmp_path / "psi.json").write_text(json.dumps(grid.metadata(), sort_keys=True))
        back = read_field(path, grid)
        np.testing.assert_array_equal(back.vals.view(np.int64), vals.view(np.int64))

    @pytest.mark.parametrize("spoil", [
        lambda meta: meta.update(n_s=meta["n_s"] + 1),
        lambda meta: meta.update(s_max=math.nextafter(meta["s_max"], math.inf)),
        lambda meta: meta.update(theta0=str(meta["theta0"])),
        lambda meta: meta.update(a=1.0),
        lambda meta: meta.pop("s_min"),
    ], ids=["n_s", "s_max-one-ulp", "theta0-as-text", "extra-key", "missing-key"])
    def test_sidecar_with_another_value_or_key_rejected(self, tmp_path, spoil):
        grid = LogPolarGrid(0.0, math.log(2), 8, 10, 1.0)
        path = self._dump(tmp_path, grid, _theta_field(grid).vals)
        meta = grid.metadata()
        spoil(meta)
        (tmp_path / "psi.json").write_text(sorted_json(meta))
        with pytest.raises(GridMismatch, match="another grid"):
            read_field(path, grid)

    @pytest.mark.parametrize("text", ["", "n_s = 8\n", '{"n_s": 8,', "s_min\u00e9",
                                      "[" * 100_000 + "]" * 100_000],
                             ids=["empty", "ini", "truncated", "non-ascii", "nested-too-deep"])
    def test_sidecar_that_is_not_json_rejected(self, tmp_path, text):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        path = self._dump(tmp_path, grid, _theta_field(grid).vals)
        (tmp_path / "psi.json").write_text(text, encoding="utf-8")
        with pytest.raises(GridMismatch, match="is not a JSON grid description"):
            read_field(path, grid)

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

    @staticmethod
    def _npz(path, vals):
        with open(path, "wb") as f:  # np.savez on a name would append .npz
            np.savez(f, psi=vals)

    @pytest.mark.parametrize("spoil, message", [
        (lambda path, vals: path.write_bytes(b""), "is not a readable .npy array"),
        (lambda path, vals: path.write_bytes(path.read_bytes()[:-8]),
         "is not a readable .npy array"),
        (lambda path, vals: np.save(path, vals + 0j), "holds complex128 data"),
        (lambda path, vals: TestReadField._npz(path, vals), "holds archive data"),
    ], ids=["empty", "truncated", "complex", "npz-archive"])
    def test_unreadable_dump_rejected(self, tmp_path, spoil, message):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        vals = _theta_field(grid).vals
        path = self._dump(tmp_path, grid, vals)
        spoil(path, vals)
        with pytest.raises(GridError, match=re.escape(f"psi.npy {message}")):
            read_field(path, grid)

    def test_non_utf8_csv_names_the_file(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        path = tmp_path / "psi.csv"
        path.write_bytes(field_to_csv(_theta_field(grid)).encode() + b"\xff\n")
        with pytest.raises(GridError, match=re.escape(f"{path} is not UTF-8 text")):
            read_field(path, grid)

    def test_array_of_another_shape_rejected(self, tmp_path):
        grid = LogPolarGrid(0.0, 1.0, 8, 10, 1.0)
        path = self._dump(tmp_path, grid, np.ones((10, 10)))
        with pytest.raises(GridMismatch, match=r"\(10, 10\) array, not the grid's \(9, 11\)"):
            read_field(path, grid)
