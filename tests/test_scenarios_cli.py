import json
import math
from pathlib import Path

import numpy as np
import pytest

from sectorflow import FamilyKind, ScalarField, construct_exact, field_to_csv, sample_stream
from sectorflow.cli import main
from sectorflow.domain import LogPolarGrid
from sectorflow.errors import ConfigError
from sectorflow.scenarios import parse_config, run_scenario
from sectorflow.scenarios import TAGS, _num

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_ini_round_trip(self):
        scn = parse_config(CONFIGS / "thm1i.ini")
        assert scn.tag == "Thm1i"
        assert scn.solver["seed"] == "0"

    @pytest.mark.parametrize("top", ["object", "array"])
    def test_json_config_exits_2(self, top, tmp_path):
        cfg = {
            "scenario": {"name": "demo", "tag": "Cor1"},
            "ode": {"c": "1.0", "p": "-1.0", "f0_min": "-1.5", "f0_max": "1.5",
                    "f0_count": "7", "step": "5e-3"},
        }
        path = _write(tmp_path, "demo.json", json.dumps(cfg if top == "object" else [cfg]))
        out = tmp_path / "out"
        assert main(["ode", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path):
        text = (CONFIGS / "thm1i.ini").read_text().replace("[solver]", "[solvr]")
        assert "[solvr]" in text
        with pytest.raises(ConfigError, match=r"\[solvr\]"):
            parse_config(_write(tmp_path, "thm1i.ini", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_unknown_tag(self, tmp_path):
        path = _write(tmp_path, "bad.ini", "[scenario]\ntag = Thm99\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_theta0_out_of_range(self, tmp_path):
        path = _write(
            tmp_path,
            "bad.ini",
            "[scenario]\ntag = Thm3\n[domain]\ntheta0 = 3*pi\n"
            "[family]\nkind = pure_rotation\nalpha = 2\nc = 1\n",
        )
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_solve_tags_need_unit_annulus(self, tmp_path):
        path = _write(
            tmp_path,
            "bad.ini",
            "[scenario]\ntag = Thm1i\n[domain]\na = 1\nb = 3\ntheta0 = 1\n",
        )
        with pytest.raises(ConfigError):
            parse_config(path)


class TestRunScenario:
    def test_report_written(self, tmp_path):
        scn = parse_config(CONFIGS / "thm4_b2.ini")
        code, report = run_scenario(scn, tmp_path)
        assert code == 0
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved == report
        assert all(c["passed"] for c in report["checks"])


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = main(
            ["ode", "--config", str(CONFIGS / "cor1.ini"), "--out", str(tmp_path)]
        )
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path):
        bad = _write(tmp_path, "bad.ini", "[scenario]\ntag = Nope\n")
        assert main(["exact", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_exit_two_on_tag_subcommand_mismatch(self, tmp_path):
        code = main(
            ["ode", "--config", str(CONFIGS / "thm1i.ini"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_exit_one_on_failed_check(self, tmp_path, monkeypatch):
        # a stream whose Laplacian is not a function of the stream value
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)
        S, TH = grid.mesh()

        bad = ScalarField(grid, np.sin(3 * S) * np.cos(2 * TH) + S * TH)
        (tmp_path / "stream.csv").write_text(field_to_csv(bad))
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "verify",
                "--config", str(CONFIGS / "verify.ini"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_exit_three_on_numerical_failure(self, tmp_path):
        cfg = _write(
            tmp_path,
            "blowup.ini",
            "[scenario]\nname = blowup\ntag = Thm4_B1\n"
            "[domain]\na = 1\nb = 2\ntheta0 = 2.0\n"
            "[grid]\nn_s = 32\nn_theta = 32\n"
            "[family]\nkind = tan\nv = 1.0\np = 0.0\nc = 0.0\n",
        )
        assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_verify_subcommand(self, tmp_path, monkeypatch):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        (tmp_path / "stream.csv").write_text(field_to_csv(sample_stream(sol, grid)))
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "verify",
                "--config", str(CONFIGS / "verify.ini"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_verify_reads_binary_export(self, tmp_path):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        np.save(tmp_path / "stream.npy", sample_stream(sol, grid).vals)
        (tmp_path / "stream.json").write_text(grid.to_json())
        text = (CONFIGS / "verify.ini").read_text().replace(
            "psi_csv = stream.csv", f"psi_csv = {tmp_path / 'stream.npy'}")
        cfg = _write(tmp_path, "verify.ini", text)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_verify_missing_field_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "verify",
                "--config", str(CONFIGS / "verify.ini"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_slide_subcommand(self, tmp_path):
        code = main(
            ["slide", "--config", str(CONFIGS / "slide.ini"), "--out", str(tmp_path)]
        )
        assert code == 0


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(
                ["ode", "--config", str(CONFIGS / "cor1.ini"), "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestConfigExpressions:
    @pytest.mark.parametrize(
        "text, value",
        [("pi/2", math.pi / 2), ("2*pi", 2 * math.pi), ("3*pi", 3 * math.pi),
         ("inf", math.inf), ("-1e-3", -1e-3), ("-(2**-3) + e", math.e - 0.125)],
    )
    def test_arithmetic_values(self, text, value):
        assert _num(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "[c for c in ().__class__.__base__.__subclasses__()].__len__()",
            "10**10**10",
            "__import__('os')",
            "abs(-1)",
            "2 // 1",
            "True",
            "",
            "(-8)**(1/3)",
            "1/0",
            "-" * 100000 + "1",
            "1+" * 100000 + "1",
        ],
        ids=lambda text: text[:40],
    )
    def test_anything_else_is_rejected(self, text):
        with pytest.raises(ConfigError):
            _num(text)


SUBCOMMANDS = ("exact", "ode", "solve", "verify", "slide", "batch")


@pytest.mark.parametrize(
    "cfg",
    sorted(p.name for p in CONFIGS.glob("*.ini") if p.name != "batch.ini"),
)
def test_registry_routes_each_shipped_tag_to_one_subcommand(cfg, tmp_path):
    scn = parse_config(CONFIGS / cfg)
    assert scn.tag in TAGS
    own = TAGS[scn.tag].subcommand
    assert own in SUBCOMMANDS
    for cmd in SUBCOMMANDS:
        if cmd != own:
            out = tmp_path / cmd
            assert main([cmd, "--config", str(CONFIGS / cfg), "--out", str(out)]) == 2
            assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "text",
    [
        "[scenario]\ntag = Cor1\n[ode]\np = -1.0\n",
        "[scenario]\ntag = Verify\n[verify]\npsi_csv =\n",
        "[scenario]\ntag = Verify\n",
    ],
)
def test_required_keys_checked_at_parse(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "bad.ini", text))


_B2_SECTIONS = (
    "[scenario]\nname = b2\ntag = Thm4_B2\n[domain]\na = 1\nb = 2\ntheta0 = 1.0\n"
    "[family]\nkind = rational\nv = 1.0\nc = 1.0\n"
)


class TestIntegerValues:
    def test_fractional_ini_grid_size_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, "b2.ini", _B2_SECTIONS + "[grid]\nn_s = 64.5\nn_theta = 64\n")
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()


class TestNothingToRun:
    @pytest.mark.parametrize("taus", [",", ""])
    def test_slide_without_translations_is_config_error(self, taus, tmp_path):
        text = f"[scenario]\nname = slide\ntag = Slide\n[slide]\nn = 16\ntaus = {taus}\n"
        cfg = _write(tmp_path, "slide.ini", text)
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    def test_slide_zero_translation_runs(self, tmp_path):
        text = "[scenario]\nname = slide\ntag = Slide\n[slide]\nn = 16\ntaus = 0\n"
        cfg = _write(tmp_path, "slide.ini", text)
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["sliding"]["min_w"] == 0.0

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_cor1_without_members_is_config_error(self, count, tmp_path):
        text = f"[scenario]\nname = cor1\ntag = Cor1\n[ode]\nc = 1\np = 0.5\nf0_count = {count}\n"
        cfg = _write(tmp_path, "cor1.ini", text)
        out = tmp_path / "out"
        assert main(["ode", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()


class TestSolveOnlyFlags:
    @pytest.mark.parametrize("cmd, cfg", [("batch", "batch.ini"), ("exact", "thm4_b2.ini")])
    @pytest.mark.parametrize("flag", [["--tol", "1e-6"], ["--seed", "3"]])
    def test_other_subcommands_reject_solver_flags(self, cmd, cfg, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--config", str(CONFIGS / cfg), "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_solve_applies_seed_and_tol(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(scn, out):
            seen.append(dict(scn.solver))
            return 0, {"checks": []}

        monkeypatch.setattr("sectorflow.cli.run_scenario", fake_run)
        argv = ["solve", "--config", str(CONFIGS / "thm1i.ini"), "--out", str(tmp_path)]
        assert main([*argv, "--seed", "7", "--tol", "1e-6"]) == 0
        assert seen[0]["seed"] == "7" and seen[0]["tol"] == "1e-06"


_SIN = "[family]\nkind = sin\nalpha = 2\np = -0.5\nc = pi/2\n"
_THM1I = "tag = Thm1i\n[grid]\nn_s = 16\nn_theta = 16\n[solver]\n"


class TestConfigMistakes:
    """Mistakes in a config exit 2 and write no report."""

    @pytest.mark.parametrize(
        "sections",
        [
            "[domain]\na = 1\nb = 2\ntheta0 = 1.0\n[family]\nkind = sin\nalpha = 2\nc = 1\n",
            "[domain]\na = 3\nb = 2\ntheta0 = 1.0\n" + _SIN,
            "[domain]\na = 1\nb = 2\ntheta0 = 1.0\n[grid]\ns_min = 0.5\n" + _SIN,
            "[domain]\na = 2\nb = inf\ntheta0 = 1.0\n[grid]\ns_min = 0\n" + _SIN,
            "[domain]\na = 1\nb = 2\ntheta0 = 1.0\n"
            "[family]\nkind = radial_alpha1\np = -0.5\nsgn = -1\n",
            "[domain]\na = 1\nb = 2\ntheta0 = 1.0\n" + _SIN + "c2 = 0\n",
        ],
        ids=["family-key-missing", "a-above-b", "s_min-off-ln-a", "s_min-off-ln-a-half-line",
             "family-key-unread", "family-key-of-another-kind"],
    )
    def test_exits_2_without_report(self, sections, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.ini", "[scenario]\nname = bad\ntag = Thm2_A2\n" + sections)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, sections, flags",
        [
            ("ode", "tag = Cor1\n[ode]\nc = nan\n", []),
            ("ode", "tag = Cor1\n[ode]\nc = 1\np = inf\n", []),
            ("solve", _THM1I + "tol = nan\n", []),
            ("solve", _THM1I + "tol = -1\n", []),
            ("solve", _THM1I + "perturbation = nan\n", []),
            ("solve", _THM1I + "perturbation = inf\n", []),
            ("solve", _THM1I + "b = nan\n", []),
            ("solve", _THM1I, ["--tol", "nan"]),
            ("slide", "tag = Slide\n[slide]\nn = 16\nxi1 = nan\n", []),
            ("slide", "tag = Slide\n[slide]\nn = 16\ntaus = 0.1,nan\n", []),
            ("slide", "tag = Slide\n[slide]\nn = 16\nxi1 = -1\n", []),
            ("slide", "tag = Slide\n[slide]\nn = 16\nxi2 = -1\n", []),
            ("slide", "tag = Slide\n[slide]\nn = 16\nxi2 = 0\n", []),
            ("slide", "tag = Slide\n[slide]\nn = 16\ntaus = -0.1\n", []),
            *(("ode", f"tag = Cor1\n[ode]\nc = 1\nstep = {step}\n", [])
              for step in ("0", "-1e-3", "nan", "10")),
        ],
        ids=["cor1-c-nan", "cor1-p-inf", "tol-nan", "tol-negative", "perturbation-nan",
             "perturbation-inf", "b-nan", "cli-tol-nan", "slide-xi1-nan", "slide-tau-nan",
             "slide-xi1-negative", "slide-xi2-negative", "slide-xi2-zero", "slide-tau-negative",
             "step-0", "step-negative", "step-nan", "step-10"],
    )
    def test_non_finite_or_out_of_range_number_exits_2(self, cmd, sections, flags, tmp_path):
        cfg = _write(tmp_path, "bad.ini", "[scenario]\nname = bad\n" + sections)
        out = tmp_path / "out"
        assert main([cmd, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("n", [4, 7])
    def test_slide_below_8_cells_exits_2(self, n, tmp_path, capsys):
        cfg = _write(tmp_path, "slide.ini",
                     f"[scenario]\nname = slide\ntag = Slide\n[slide]\nn = {n}\n")
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "at least 8 cells" in capsys.readouterr().err

    @staticmethod
    def _verify(tmp_path, psi_path, capsys):
        text = (CONFIGS / "verify.ini").read_text().replace(
            "psi_csv = stream.csv", f"psi_csv = {psi_path}")
        out = tmp_path / "out"
        code = main(["verify", "--config", str(_write(tmp_path, "verify.ini", text)),
                     "--out", str(out)])
        return code, out, capsys.readouterr()

    def test_verify_csv_of_another_grid_exits_2(self, tmp_path, capsys):
        other = LogPolarGrid(0.0, math.log(2), 32, 48, 1.0)  # verify.ini reads 64 x 64
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        (tmp_path / "stream.csv").write_text(field_to_csv(sample_stream(sol, other)))
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.csv", capsys)
        assert code == 2 and not (out / "report.json").exists()
        assert "is not a node of the grid" in captured.err

    def test_verify_npy_of_another_grid_exits_2(self, tmp_path, capsys):
        other = LogPolarGrid(0.0, math.log(2), 64, 64, 0.5)
        np.save(tmp_path / "stream.npy", np.ones(other.shape))
        (tmp_path / "stream.json").write_text(other.to_json())
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.npy", capsys)
        assert code == 2 and not (out / "report.json").exists()
        assert "describes another grid" in captured.err

    def test_verify_nan_value_stays_a_numerical_failure(self, tmp_path, capsys):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)
        vals = np.ones(grid.shape)
        vals[5, 9] = np.nan
        (tmp_path / "stream.csv").write_text(field_to_csv(ScalarField(grid, vals)))
        code, out, _ = self._verify(tmp_path, tmp_path / "stream.csv", capsys)
        report = json.loads((out / "report.json").read_text())
        assert code == 3 and report["error"].startswith("GridError: CSV line")

    def test_half_line_takes_ln_a_for_s_min(self, tmp_path):
        """a = 2, b = inf with only s_max set runs on [ln 2, s_max]."""
        cfg = _write(tmp_path, "half.ini", "[scenario]\nname = half\ntag = Thm5ii\n"
                     "[domain]\na = 2\nb = inf\ntheta0 = 1.0\n[grid]\ns_max = 3\n" + _SIN)
        code, report = run_scenario(parse_config(cfg), tmp_path / "out")
        assert code == 0
        assert (report["grid"]["s_min"], report["grid"]["s_max"]) == (math.log(2), 3.0)


def test_failed_solve_keeps_its_solve_report(tmp_path):
    cfg = _write(tmp_path, "thm2_a1.ini", (CONFIGS / "thm2_a1.ini").read_text())
    scn = parse_config(cfg)
    scn.grid.update(n_s="16", n_theta="16")
    scn.solver["tol"] = "1e-30"
    code, report = run_scenario(scn, tmp_path / "out")
    assert code == 3 and report["error"].startswith("NoConvergence")
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    rep = saved["solve_report"]
    assert rep["converged"] is False and rep["linear_method"]
    assert len(rep["residual_history"]) == rep["iterations"] + 1
    assert rep["residual_history"][-1] == rep["final_residual"] > 1e-30


def test_out_of_memory_exits_3_with_a_report(tmp_path, monkeypatch, capsys):
    """A pipeline step that exhausts memory (a tiny Cor1 step asks numpy for
    terabytes) is a numerical failure.  The march is replaced so that no
    huge array is ever requested."""
    from sectorflow import angular_ode

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.75 TiB for an array")

    monkeypatch.setattr(angular_ode, "_march", exhausted)
    out = tmp_path / "out"
    assert main(["ode", "--config", str(CONFIGS / "cor1.ini"), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == ("PipelineFailure: pipeline step ran out of memory: "
                               "Unable to allocate 3.75 TiB for an array")
    assert "numerical failure" in capsys.readouterr().out
