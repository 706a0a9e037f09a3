import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sectorflow import build_grid, make_sector
from sectorflow.domain import DEFAULT_CLIP_HALFWIDTH, LogPolarGrid, sorted_json
from sectorflow.errors import GridError, InvalidAngle, InvalidRadii


class TestMakeSector:
    def test_reversed_radii_rejected(self):
        with pytest.raises(InvalidRadii):
            make_sector(2, 1, math.pi)

    def test_negative_inner_radius_rejected(self):
        with pytest.raises(InvalidRadii):
            make_sector(-1, 1, math.pi)

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(InvalidAngle):
            make_sector(1, 2, 3 * math.pi)
        with pytest.raises(InvalidAngle):
            make_sector(1, 2, 0.0)


class TestBuildGrid:
    def test_finite_domain_bounds_forced(self):
        grid = build_grid(make_sector(1, 2, math.pi / 2), 64, 64)
        assert grid.s_min == 0.0
        assert grid.s_max == math.log(2)
        assert grid.h_s == pytest.approx(math.log(2) / 64)

    def test_inconsistent_clip_rejected(self):
        with pytest.raises(GridError):
            build_grid(make_sector(1, 2, 1.0), 64, 64, s_min=0.0, s_max=1.0)

    def test_half_infinite_clip(self):
        grid = build_grid(make_sector(1, math.inf, math.pi), 64, 64, s_min=0, s_max=4)
        assert (grid.s_min, grid.s_max) == (0.0, 4.0)

    def test_origin_clip(self):
        grid = build_grid(make_sector(0, 1, math.pi), 64, 64, s_min=-4, s_max=0)
        assert (grid.s_min, grid.s_max) == (-4.0, 0.0)

    def test_default_clip_halfwidth(self):
        grid = build_grid(make_sector(1, math.inf, 1.0), 64, 64)
        assert grid.s_max == DEFAULT_CLIP_HALFWIDTH

    def test_too_few_cells_rejected(self):
        with pytest.raises(GridError):
            build_grid(make_sector(1, 2, 1.0), 4, 64)

    def test_clip_beyond_domain_rejected(self):
        with pytest.raises(GridError):
            build_grid(make_sector(1, math.inf, 1.0), 64, 64, s_min=-1, s_max=4)

    def test_finite_end_fixes_its_limit(self):
        """a = 2, b = inf with only s_max: s_min is ln 2, not 0."""
        grid = build_grid(make_sector(2, math.inf, 1.0), 64, 64, s_max=3)
        assert (grid.s_min, grid.s_max) == (math.log(2), 3.0)
        grid = build_grid(make_sector(0, 2, 1.0), 64, 64, s_min=-1, s_max=math.log(2))
        assert (grid.s_min, grid.s_max) == (-1.0, math.log(2))

    @pytest.mark.parametrize(
        "a, b, limits",
        [(1, 2, {"s_min": 0.1}), (1, 2, {"s_max": 1.0}), (0, 2, {"s_max": 0.5}),
         (2, math.inf, {"s_min": 0.0})],
    )
    def test_limit_contradicting_a_finite_end_rejected(self, a, b, limits):
        with pytest.raises(GridError, match="contradicts the finite end"):
            build_grid(make_sector(a, b, 1.0), 64, 64, **limits)

    @pytest.mark.parametrize(
        "a, b, expected",
        [(0, math.inf, (-4.0, 4.0)), (0, math.e, (-3.0, 1.0)), (math.e, math.inf, (1.0, 5.0))],
    )
    def test_default_truncation(self, a, b, expected):
        grid = build_grid(make_sector(a, b, 1.0), 64, 64)
        assert (grid.s_min, grid.s_max) == expected

    def test_infinite_end_defaults_when_other_limit_given(self):
        grid = build_grid(make_sector(0, math.inf, 1.0), 64, 64, s_min=-1.5)
        assert (grid.s_min, grid.s_max) == (-1.5, DEFAULT_CLIP_HALFWIDTH)


class TestLogPolarGrid:
    def test_node_count_and_spacing(self):
        grid = LogPolarGrid(0.0, 1.0, 10, 20, 2.0)
        assert grid.shape == (11, 21)
        assert len(grid.s_nodes) == 11
        assert grid.h_theta == pytest.approx(0.1)

    def test_r_s_round_trip(self):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)
        np.testing.assert_allclose(np.log(grid.r_nodes), grid.s_nodes, atol=1e-12)

    def test_mesh_shapes(self):
        grid = LogPolarGrid(0.0, 1.0, 8, 12, 1.0)
        S, TH = grid.mesh()
        assert S.shape == TH.shape == grid.shape

    def test_metadata_round_trip(self):
        dom = make_sector(1, 2, 1.5)
        grid = build_grid(dom, 32, 48)
        meta = json.loads(sorted_json(grid.metadata(dom)))
        grid2 = LogPolarGrid(*(meta[k] for k in ("s_min", "s_max", "n_s", "n_theta", "theta0")))
        dom2 = make_sector(meta["a"], meta["b"], meta["theta0"])
        np.testing.assert_array_equal(grid.s_nodes, grid2.s_nodes)
        np.testing.assert_array_equal(grid.theta_nodes, grid2.theta_nodes)
        assert dom2.a == dom.a and dom2.b == dom.b

    def test_metadata_infinite_b(self):
        dom = make_sector(1, math.inf, 1.0)
        grid = build_grid(dom, 16, 16)
        meta = json.loads(sorted_json(grid.metadata(dom)))
        assert meta["b"] == "inf"
        assert make_sector(meta["a"], float(meta["b"]), meta["theta0"]).b == math.inf

    @given(
        n_s=st.integers(8, 200),
        n_t=st.integers(8, 200),
        s_min=st.floats(-5, 0),
        width=st.floats(0.1, 10),
    )
    def test_node_maps_reproducible(self, n_s, n_t, s_min, width):
        grid = LogPolarGrid(s_min, s_min + width, n_s, n_t, 1.0)
        grid2 = LogPolarGrid(**grid.metadata())
        np.testing.assert_array_equal(grid.s_nodes, grid2.s_nodes)
