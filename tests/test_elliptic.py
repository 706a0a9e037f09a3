import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from sectorflow import (
    ExpForm,
    FamilyKind,
    Frame,
    PowerForm,
    ScalarField,
    ZeroG,
    construct_exact,
    default_initial_guess,
    solve_semilinear,
)
from sectorflow import elliptic, fields
from sectorflow.domain import LogPolarGrid
from sectorflow.elliptic import from_working
from sectorflow.errors import NoConvergence, ParameterDomain
from sectorflow.rigidity import s_variance
from sectorflow.scenarios import _exp_case, _power_case, parse_config, run_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _grid(n=64, theta0=math.pi / 2):
    return LogPolarGrid(0.0, math.log(2), n, n, theta0)


class TestOperators:
    # (b1, c0) of the operator d_ss + d_thth + b1 d_s + c0 each frame fixes

    def test_laplace_coefficients(self):
        for frame in (Frame(1.0), Frame(1.0, 1.5)):
            assert elliptic._frame_problem(frame, np.zeros(3))[:2] == (0.0, 0.0)

    def test_general_frame_coefficients(self):
        assert elliptic._frame_problem(Frame(2.0), np.zeros(3))[:2] == (-2.0, 1.0)
        assert elliptic._frame_problem(Frame(0.5), np.zeros(3))[:2] == (1.0, 0.25)


class TestWorkingFrames:
    def test_alpha1_frame_removes_log(self):
        grid = _grid()
        S, TH = grid.mesh()
        c = 1.5
        psi = from_working(S, np.sin(TH), Frame(1.0, c))
        np.testing.assert_allclose(psi, c * S + np.sin(TH), atol=1e-12)

    def test_general_frame_removes_power(self):
        grid = _grid()
        S, TH = grid.mesh()
        alpha = 2.0
        psi = from_working(S, np.cos(TH), Frame(alpha))
        np.testing.assert_allclose(psi, np.cos(TH) * np.exp((1 - alpha) * S), atol=1e-12)

    def test_log_term_needs_alpha_one(self):
        with pytest.raises(ParameterDomain):
            Frame(2.0, 1.0)

    @pytest.mark.parametrize(
        "tag", [Frame(1.0, 0.7), Frame(2.5), Frame(1.0)]
    )
    def test_round_trip(self, tag):
        # from_working inverts the frame's defining map
        # Psi = psi e^{s(alpha-1)} - c s; s broadcasts over theta
        grid = _grid()
        S, TH = grid.mesh()
        psi = np.sin(S) * np.cos(TH) + S
        Psi = psi * np.exp(S * (tag.alpha - 1.0)) - tag.c * S
        back = from_working(grid.s_nodes[:, None], Psi, tag)
        np.testing.assert_allclose(back, psi, atol=1e-12)


class TestGSpecs:
    def test_thm1i_zero(self):
        z = np.linspace(-1, 1, 11)
        assert not ZeroG().g(z).any() and not ZeroG().g_prime(z).any()
        assert ZeroG().g(z).shape == z.shape

    def test_thm1ii_exp_form(self):
        # tangent stream with v = c = 1 and edge constant c3 = A = 1
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        _, g, frame = _exp_case(sol, {}, {"c3_hat": 1.0})
        assert isinstance(g, ExpForm) and frame == Frame(1.0, 1.0)
        z = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(g.g(z), -np.exp(-2.0 * z), rtol=1e-12)

    def test_thm2_power_form(self):
        # alpha=2 secant stream: C1 = h(0) = -1, c3 = f'(0) = 1 gives
        # g(z) = -2|z|^3, i.e. 2 z^3 on the z < 0 branch the stream occupies
        sol = construct_exact(FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0)
        _, g, frame = _power_case(sol, {}, {"c3_hat": 1.0})
        assert isinstance(g, PowerForm) and frame == Frame(2.0)
        assert g.q == pytest.approx(3.0)
        z = np.linspace(-2.0, -0.1, 21)
        np.testing.assert_allclose(g.g(z), 2.0 * z**3, rtol=1e-12)

    def test_power_form_subcritical_rejected(self):
        with pytest.raises(ParameterDomain):
            PowerForm(1.0, 0.5)


class TestLinearSolves:
    def test_periodic_swirl_free_demo(self):
        grid = _grid()
        B, theta0 = 1.0, grid.theta0
        h = lambda th: B * th / theta0
        init = default_initial_guess(grid, h, amplitude=0.1, seed=3)
        psi, rep = solve_semilinear(grid, ZeroG(), Frame(1.0), h, init=init)
        _, TH = grid.mesh()
        assert rep.converged
        assert s_variance(psi) <= 1e-6
        assert np.max(np.abs(psi.vals - B * TH / theta0)) <= 5 * grid.h_theta**2


class TestSemilinearSolves:
    def test_exp_nonlinearity_recovers_profile(self):
        grid = _grid(48, 1.0)
        c = 1.0
        h = lambda th: np.log(np.cos(th))
        init = default_initial_guess(grid, h, amplitude=0.1, seed=0)
        Psi, rep = solve_semilinear(grid, ExpForm(-1.0, c), Frame(1.0, c), h, init=init)
        _, TH = grid.mesh()
        assert rep.converged
        assert s_variance(Psi) <= 1e-6
        assert np.max(np.abs(Psi.vals - np.log(np.cos(TH)))) < 5e-3

    def test_power_nonlinearity_recovers_profile(self):
        grid = _grid(48, 1.0)
        alpha = 2.0
        h = lambda th: -1.0 / np.cos(th)
        init = default_initial_guess(grid, h, amplitude=0.1, seed=1)
        Psi, rep = solve_semilinear(
            grid, PowerForm(-2.0, 3.0), Frame(alpha), h, init=init
        )
        _, TH = grid.mesh()
        assert rep.converged
        assert s_variance(Psi) <= 1e-6
        assert np.max(np.abs(Psi.vals - h(TH))) < 5e-3

    def test_seeded_perturbation_deterministic(self):
        grid = _grid(16)
        h = lambda th: np.sin(th)
        a = default_initial_guess(grid, h, amplitude=0.2, seed=7)
        b = default_initial_guess(grid, h, amplitude=0.2, seed=7)
        c = default_initial_guess(grid, h, amplitude=0.2, seed=8)
        np.testing.assert_array_equal(a.vals, b.vals)
        assert np.max(np.abs(a.vals - c.vals)) > 0

    def test_report_json_fields(self, tmp_path):
        scn = parse_config(CONFIGS / "thm1i.ini", {"grid": {"n_s": 16, "n_theta": 16}})
        assert run_scenario(scn, tmp_path)[0] == 0
        rep = json.loads((tmp_path / "report.json").read_text())["solve_report"]
        assert {"iterations", "final_residual", "s_variance", "converged",
                "residual_history"} <= set(rep)
        assert rep["converged"] is True and len(rep["residual_history"]) == rep["iterations"] + 1


class TestFullStencil:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_linear_solve_takes_one_newton_step(self, n):
        # every term of the stencil is present (b1 = 1 and c0 = 1/4 in the
        # alpha = 0.5 frame), so one Newton step solves the linear problem
        # only if the Jacobian is the residual's exact linearisation
        grid = _grid(n, 1.0)
        h = lambda th: np.sin(2.0 * th) + th
        init = default_initial_guess(grid, h, amplitude=0.5, seed=n)
        _, rep = solve_semilinear(grid, ZeroG(), Frame(0.5), h, init=init)
        assert rep.converged
        assert rep.iterations == 1


class TestFrameConsistency:
    """Before any Newton step, the residual of an exact family's
    s-independent trace is the discretisation error when the frame's L, F
    and arg are the family's equation; it falls as h^2."""

    @staticmethod
    def _start_residual(g, frame, h, n):
        grid = LogPolarGrid(0.0, math.log(2), n, n, 1.0)
        try:
            return solve_semilinear(grid, g, frame, h, max_iter=0)[1].final_residual
        except NoConvergence as exc:
            return exc.report.final_residual

    @pytest.mark.parametrize("g, frame, h", [
        (ExpForm(-1.0, 1.0), Frame(1.0, 1.0), lambda th: np.log(np.cos(th))),
        (PowerForm(-2.0, 3.0), Frame(2.0), lambda th: -1.0 / np.cos(th)),
    ], ids=["alpha1-tan", "general-frame-cos-power"])
    def test_exact_trace_residual_falls_at_second_order(self, g, frame, h):
        r64, r128 = (self._start_residual(g, frame, h, n) for n in (64, 128))
        assert r64 >= 3.5 * r128

    def test_linear_trace_is_exact_in_the_raw_frame(self):
        # theta0 = 1 on 64 cells puts every node on a binary fraction
        assert self._start_residual(ZeroG(), Frame(1.0), lambda th: 2.0 * th - 1.0, 64) == 0.0


# the three (g, frame, b1, c0, trace) combinations the pipelines solve, on
# theta0 = 1 with the traces of their exact families; (b1, c0) are the
# frame's operator coefficients, written out here so that the oracle never
# reads them from the solver
PIPELINE_SOLVES = {
    "thm1i": (ZeroG(), Frame(1.0), 0.0, 0.0, lambda th: th),
    "thm1ii": (ExpForm(-1.0, 1.0), Frame(1.0, 1.0), 0.0, 0.0,
               lambda th: np.log(np.cos(th))),
    "thm2": (PowerForm(-2.0, 3.0), Frame(2.0), -2.0, 1.0,
             lambda th: -1.0 / np.cos(th)),
}

# frames with their (b1, c0); the alpha = 1 frames' operator is the plain Laplacian
FRAMES = pytest.mark.parametrize("frame, b1, c0", [
    (Frame(1.0), 0.0, 0.0),
    (Frame(1.0, 1.0), 0.0, 0.0),
    (Frame(2.0), -2.0, 1.0),
    (Frame(0.5), 1.0, 0.25),
], ids=["laplace", "alpha1", "general-frame", "general-frame-0.5"])


def _case(case, n_s, n_theta, frame):
    """(g, frame, b1, c0, trace, grid) of ``case``, with ``frame`` a
    (frame, b1, c0) triple that replaces the case's own when given."""
    g, *own, h = PIPELINE_SOLVES[case]
    return (g, *(frame or own), h, LogPolarGrid(0.0, math.log(2), n_s, n_theta or n_s, 1.0))


def _periodic_solve(case, n_s, n_theta=None, frame=None):
    g, frame, _, _, h, grid = _case(case, n_s, n_theta, frame)
    init = default_initial_guess(grid, h, amplitude=0.1, seed=n_s)
    return solve_semilinear(grid, g, frame, h, init=init)


@pytest.mark.parametrize("case", sorted(PIPELINE_SOLVES))
def test_solve_reads_only_the_unknowns_of_init(case):
    """Newton carries the unknowns only: garbage on init's theta-edges and
    in its row n_s changes neither the solved field's bytes nor the report,
    and init itself is left as it was."""
    g, frame, _, _, h, grid = _case(case, 32, None, None)
    init = default_initial_guess(grid, h, amplitude=0.1, seed=32)
    vals = init.vals.copy()
    rng = np.random.default_rng(7)
    vals[:, [0, -1]] = 1e3 * rng.standard_normal((grid.n_s + 1, 2))
    vals[-1, :] = 1e3 * rng.standard_normal(grid.n_theta + 1)
    dirty = ScalarField(grid, vals.copy())
    psi, rep = solve_semilinear(grid, g, frame, h, init=init)
    dirty_psi, dirty_rep = solve_semilinear(grid, g, frame, h, init=dirty)
    assert rep.converged and dirty_psi.vals.tobytes() == psi.vals.tobytes()
    assert asdict(dirty_rep) == asdict(rep)
    assert dirty.vals.tobytes() == vals.tobytes()


def _oracle_jacobian(b1, c0, grid, nonlinear):
    """The Newton Jacobian of d_ss + d_thth + b1 d_s + c0 - F g(arg) written
    out entry by entry from the difference formulas, independently of the
    solver's stencil table.  Unknown (i, j) is s-row i < n_s, whose
    neighbours wrap mod n_s, and theta-column 0 < j < n_theta, whose edge
    neighbours are Dirichlet data (no entry); ``nonlinear[i, j - 1]`` is the
    derivative of F g(arg) at that unknown."""
    n_s, n_t = grid.n_s, grid.n_theta
    k_s, k_t, k_b = 1.0 / grid.h_s**2, 1.0 / grid.h_theta**2, b1 / (2.0 * grid.h_s)
    unknown = lambda i, j: (i % n_s) * (n_t - 1) + j - 1
    rows, cols, vals = [], [], []
    for i in range(n_s):
        for j in range(1, n_t):
            entries = [((i, j), -2.0 * k_s - 2.0 * k_t + c0 - nonlinear[i, j - 1]),
                       ((i + 1, j), k_s + k_b), ((i - 1, j), k_s - k_b)]
            entries += [((i, j + dj), k_t) for dj in (-1, 1) if 0 < j + dj < n_t]
            for (ii, jj), v in entries:
                rows.append(unknown(i, j))
                cols.append(unknown(ii, jj))
                vals.append(v)
    N = n_s * (n_t - 1)
    return coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsc()


class _RecordingG:
    """A g form that keeps every g' it hands to the solver."""

    def __init__(self, base):
        self.base, self.g_primes = base, []

    def g(self, z):
        return self.base.g(z)

    def g_prime(self, z):
        self.g_primes.append(self.base.g_prime(z))
        return self.g_primes[-1]


def _solve_with_oracle(monkeypatch, case, n_s, n_theta=None, frame=None, exact=None,
                       columns=False):
    """Solve ``case`` as :func:`_periodic_solve` does and record each Newton
    step as (oracle Jacobian, rhs, step, action), all flat; the action is the
    solver's Jacobian action applied to every unit vector when ``columns``
    is set, else None.  With ``exact`` (a solver of oracle @ x = rhs), every
    step is that solve instead of GMRES."""
    g, frame, b1, c0, h, grid = _case(case, n_s, n_theta, frame)
    spec = _RecordingG(g)
    # F d arg/d Psi = e^{(1+alpha)s} e^{(1-alpha)s} = e^{2s} in every frame
    factor = np.exp(2.0 * grid.s_nodes[:n_s, None])
    krylov_step = elliptic._krylov_step
    steps = []

    def recording(jvp, rhs, precond):
        A = _oracle_jacobian(b1, c0, grid, factor * spec.g_primes[-1])
        if exact is None:
            step, its, ok = krylov_step(jvp, rhs, precond)
        else:
            step, its, ok = exact(A, rhs.ravel()).reshape(rhs.shape), 0, True
        action = None
        if columns:
            unit = np.eye(rhs.size)
            action = np.column_stack([jvp(e.reshape(rhs.shape)).ravel() for e in unit])
        steps.append((A, rhs.ravel(), step.ravel(), action))
        return step, its, ok

    monkeypatch.setattr(elliptic, "_krylov_step", recording)
    init = default_initial_guess(grid, h, amplitude=0.1, seed=n_s)
    psi, rep = solve_semilinear(grid, spec, frame, h, init=init)
    monkeypatch.undo()
    assert len(steps) == rep.iterations
    return psi, rep, steps


def _lu_solve(A, rhs):
    return splu(A).solve(rhs)


def _dense_solve(A, rhs):
    return np.linalg.solve(A.toarray(), rhs)


def _assert_meets_forcing(A, rhs, step, exact):
    assert (np.linalg.norm(A @ (step - exact))
            <= elliptic.KRYLOV_RTOL * np.linalg.norm(rhs))


class TestKrylovStep:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    @pytest.mark.parametrize("case", list(PIPELINE_SOLVES))
    def test_agrees_with_splu(self, case, n, monkeypatch):
        # every Krylov step meets the forcing against the sparse-LU solve of
        # the oracle Jacobian, and the Newton solution matches a solve whose
        # every step is that LU solve; the step itself can differ from the
        # exact one by more, since the forcing bounds the residual
        psi, rep, steps = _solve_with_oracle(monkeypatch, case, n)
        assert rep.krylov_converged == [True] * rep.iterations
        # the preconditioner is the exact Jacobian at an s-free state: each
        # step after the first takes at most three iterations, and the first,
        # from the perturbed start, at most four (four at n <= 64)
        assert rep.krylov_iterations[0] <= 4 and max(rep.krylov_iterations[1:], default=0) <= 3
        for A, rhs, step, _ in steps:
            exact = _lu_solve(A, rhs)
            _assert_meets_forcing(A, rhs, step, exact)
            if case == "thm1i":
                assert np.max(np.abs(step - exact)) <= 1e-12 * np.max(np.abs(exact))
        ref, _, _ = _solve_with_oracle(monkeypatch, case, n, exact=_lu_solve)
        assert np.max(np.abs(psi.vals - ref.vals)) <= 1e-12 * np.max(np.abs(ref.vals))

    @pytest.mark.parametrize("n_s, n_theta", [(16, 16), (24, 17)])
    @FRAMES
    @pytest.mark.parametrize("case", list(PIPELINE_SOLVES))
    def test_action_is_the_dense_jacobian(self, case, frame, b1, c0, n_s, n_theta,
                                          monkeypatch):
        # the Jacobian action on each unit vector is a column of the oracle,
        # across the periodic wrap, the zero theta-edges and g'; each step
        # meets the forcing against a dense solve; and the Newton solution
        # matches a solve whose every step is that dense solve
        psi, rep, steps = _solve_with_oracle(monkeypatch, case, n_s, n_theta,
                                             (frame, b1, c0), columns=True)
        assert rep.converged and rep.iterations >= 1
        for A, rhs, step, action in steps:
            dense = A.toarray()
            assert np.max(np.abs(action - dense)) <= 1e-12 * np.max(np.abs(dense))
            _assert_meets_forcing(A, rhs, step, np.linalg.solve(dense, rhs))
        ref, _, _ = _solve_with_oracle(monkeypatch, case, n_s, n_theta, (frame, b1, c0),
                                       exact=_dense_solve)
        assert np.max(np.abs(psi.vals - ref.vals)) <= 1e-12 * np.max(np.abs(ref.vals))

    @pytest.mark.parametrize("n_s, n_theta", [(16, 16), (33, 20), (64, 64)])
    @FRAMES
    def test_linear_solve_takes_one_krylov_iteration(self, frame, b1, c0, n_s, n_theta):
        # with g = 0 the preconditioner is the Jacobian's exact inverse, so a
        # mis-signed or mis-scaled band term costs extra iterations
        _, rep = _periodic_solve("thm1i", n_s, n_theta, (frame, b1, c0))
        assert rep.converged
        assert rep.krylov_converged == [True] * rep.iterations
        assert rep.krylov_iterations == [1] * rep.iterations

    def test_capped_step_is_recorded_and_damped(self, monkeypatch):
        # GMRES capped at two iterations misses the forcing on the first
        # steps; each is taken as GMRES left it, recorded as not converged,
        # and the damped line search still brings the residual to tol
        monkeypatch.setattr(elliptic, "KRYLOV_MAX_ITER", 2)
        _, rep = _periodic_solve("thm2", 32)
        assert rep.converged
        assert False in rep.krylov_converged
        assert max(rep.krylov_iterations) <= 2

    def test_repeat_solves_bitwise_equal(self):
        a, rep_a = _periodic_solve("thm2", 64)
        b, rep_b = _periodic_solve("thm2", 64)
        np.testing.assert_array_equal(a.vals, b.vals)
        assert asdict(rep_a) == asdict(rep_b)


def _assert_table_contract(terms):
    # the interpreter weights only a term's first tap and adds the rest, and
    # a zero coefficient or weight would add a pass that moves no value
    for coef, denom, ((_, _, w), *rest) in terms:
        assert coef != 0.0 and w != 0.0 and denom != 0.0
        assert all(w_rest == 1.0 for _, _, w_rest in rest)


class TestStencilTable:
    @FRAMES
    def test_frame_tables_keep_the_contract(self, frame, b1, c0):
        grid = _grid(32)
        terms = elliptic._stencil_terms(*elliptic._frame_problem(frame, np.zeros(1))[:2],
                                        grid.h_s, grid.h_theta)
        _assert_table_contract(terms)
        assert len(terms) == 2 + (b1 != 0.0) + (c0 != 0.0)

    def test_laplacian_table_keeps_the_contract(self, monkeypatch):
        tables, stencil_terms = [], fields._stencil_terms

        def recording(*args):
            tables.append(stencil_terms(*args))
            return tables[-1]

        monkeypatch.setattr(fields, "_stencil_terms", recording)
        grid = _grid(32)
        fields.laplacian_polar(ScalarField(grid, np.ones(grid.shape)))
        assert tables and len(tables[0]) == 2  # no 0 psi pass for b1 = c0 = 0
        for terms in tables:
            _assert_table_contract(terms)

    @FRAMES
    def test_output_view_equals_fresh_output(self, frame, b1, c0):
        # into a strided view of a larger array, bit for bit
        terms = elliptic._stencil_terms(b1, c0, 0.1, 0.03)
        Q = np.random.default_rng(7).standard_normal((21, 14))
        big = np.full((25, 30), np.nan)
        view = big[2:21, 3:27:2]
        assert elliptic._apply_stencil(terms, Q, out=view) is view
        assert view.tobytes() == elliptic._apply_stencil(terms, Q).tobytes()
        assert np.isnan(big[:2]).all() and np.isnan(big[:, 4:27:2]).all()


class TestPreconditioner:
    @pytest.mark.parametrize("n_s, n_theta", [(16, 16), (24, 17), (33, 20)])
    @FRAMES
    def test_inverts_the_dense_shifted_operator(self, frame, b1, c0, n_s, n_theta):
        # the oracle Jacobian with a theta-varying diagonal in place of the
        # nonlinearity's is L - diag(shift(theta)); the preconditioner is its
        # inverse, across the periodic wrap and the zero theta-edges
        grid = LogPolarGrid(0.0, math.log(2), n_s, n_theta, 1.0)
        shift = 2.0 + np.cos(3.0 * grid.theta_nodes[1:-1])
        A = _oracle_jacobian(b1, c0, grid, np.tile(shift, (n_s, 1))).toarray()
        terms = elliptic._stencil_terms(*elliptic._frame_problem(frame, np.zeros(1))[:2],
                                        grid.h_s, grid.h_theta)
        x = np.random.default_rng(n_s).standard_normal((n_s, n_theta - 1))
        back = elliptic._preconditioner(terms, n_s, shift)((A @ x.ravel()).reshape(x.shape))
        assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("column, value", [(0, -8.0), (3, np.nan)], ids=["zero", "nan"])
    def test_zero_or_nan_pivot_raises(self, column, value):
        # with both steps 1/2, mode 0's diagonal is -2 / (1/2)^2 = -8 exactly,
        # so a shift of -8 in the first column makes its first pivot zero
        terms = elliptic._stencil_terms(0.0, 0.0, 0.5, 0.5)
        shift = np.zeros(6)
        shift[column] = value
        with pytest.raises(NoConvergence, match="pivot"):
            elliptic._preconditioner(terms, 8, shift)


def _dense_system(n=12, seed=0):
    """A well-conditioned nonsymmetric (A, b): a diagonal from 1 to 3 plus a
    small random part, so its eigenvalues are distinct and GMRES needs about
    n iterations."""
    rng = np.random.default_rng(seed)
    A = np.diag(np.linspace(1.0, 3.0, n)) + 0.1 * rng.standard_normal((n, n))
    return A, rng.standard_normal(n)


def _identity(v):
    return v


class TestGmres:
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "right-preconditioned"])
    def test_dense_system_matches_direct_solve(self, scaled):
        # x solves A x = b itself, also when Arnoldi runs on A M for a right
        # preconditioner M
        A, b = _dense_system()
        precond = (lambda v: v / np.diag(A)) if scaled else _identity
        x, its, ok = elliptic._krylov_step(lambda v: A @ v, b, precond)
        assert ok and 1 <= its <= b.size
        exact = np.linalg.solve(A, b)
        assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))
        assert np.linalg.norm(b - A @ x) <= elliptic.KRYLOV_RTOL * np.linalg.norm(b)

    def test_zero_rhs_is_a_zero_step(self):
        def never(v):
            raise AssertionError("no operator application for b = 0")

        x, its, ok = elliptic._krylov_step(never, np.zeros((4, 3)), never)
        assert ok and its == 0
        assert x.shape == (4, 3) and not x.any()

    @pytest.mark.parametrize("cap", [1, 3, 4])
    def test_capped_solve_is_the_last_iterate(self, cap, monkeypatch):
        # a cap below the system size misses KRYLOV_RTOL: ok is False, and
        # the iterate's true residual, a minimum over a space holding 0, is
        # no larger than ||b||
        monkeypatch.setattr(elliptic, "KRYLOV_MAX_ITER", cap)
        A, b = _dense_system()
        x, its, ok = elliptic._krylov_step(lambda v: A @ v, b, _identity)
        assert not ok and its == cap
        assert np.linalg.norm(b - A @ x) <= np.linalg.norm(b)


class TestGridLadder:
    @pytest.mark.parametrize("n", [192, 256])
    @pytest.mark.parametrize("config", ["thm1i.ini", "thm1ii.ini"])
    def test_shipped_config_passes(self, config, n, tmp_path):
        scn = parse_config(CONFIGS / config, {"grid": {"n_s": n, "n_theta": n}})
        code, report = run_scenario(scn, tmp_path)
        assert code == 0, report
        rep = report["solve_report"]
        assert rep["krylov_converged"] == [True] * rep["iterations"]

    @pytest.mark.parametrize("config, newton", [("thm1i.ini", 1), ("thm1ii.ini", 3),
                                                ("thm2_a1.ini", 3)])
    def test_shipped_solve_takes_at_most_three_krylov_iterations_a_step(self, config, newton,
                                                                         tmp_path):
        code, report = run_scenario(parse_config(CONFIGS / config), tmp_path)
        assert code == 0, report
        rep = report["solve_report"]
        assert rep["iterations"] == newton and rep["krylov_converged"] == [True] * newton
        assert max(rep["krylov_iterations"]) <= 3
        if config == "thm1i.ini":  # with g = 0 the preconditioner is the Jacobian's inverse
            assert rep["krylov_iterations"] == [1] * newton

    def test_shipped_thm2_a1_takes_the_krylov_path(self, tmp_path):
        code, report = run_scenario(parse_config(CONFIGS / "thm2_a1.ini"), tmp_path)
        assert code == 0, report
        rep = report["solve_report"]
        assert rep["krylov_converged"] == [True] * rep["iterations"]
