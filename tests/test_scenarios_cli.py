import configparser
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorflow import FamilyKind, ScalarField, construct_exact, field_to_csv, sample_stream
from sectorflow import fields
from sectorflow.cli import main
from sectorflow.domain import LogPolarGrid, sorted_json
from sectorflow.errors import ConfigError
from sectorflow.scenarios import parse_config, run_batch, run_scenario
from sectorflow.scenarios import TAGS, _num

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = CONFIGS.parent / "src"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_ini_round_trip(self):
        scn = parse_config(CONFIGS / "thm1i.ini")
        assert scn.tag == "Thm1i"
        assert scn.solver["seed"] == 0

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

    def test_directory_config_exits_2(self, tmp_path):
        out = tmp_path / "out"
        assert main(["exact", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cmd, text", [
        ("exact", b"[scenario]\nname = \xff\ntag = Thm3\n"),
        ("batch", b"[batch]\nscenarios = \xff.ini\n"),
        ("exact", b"[scenario]\nname = 5%\ntag = Thm3\n"),
        ("batch", b"[batch]\nscenarios = 5%.ini\n"),
    ], ids=["non-utf8", "non-utf8-batch", "percent", "percent-batch"])
    def test_unreadable_config_text_exits_2(self, cmd, text, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert main([cmd, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

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

    def test_thm3_boundary_report_keys(self, tmp_path):
        code, _ = run_scenario(parse_config(CONFIGS / "thm3.ini"), tmp_path)
        saved = json.loads((tmp_path / "report.json").read_text())
        assert code == 0
        assert set(saved["boundary_report"]) == {
            "alpha", "c1_hat", "c1_residual", "c2_hat", "c2_residual",
            "c3_hat", "c3_residual", "c4_hat", "c4_residual",
            "radial_ratio_defect", "r0", "flux_value", "mass_identity_defect",
            "rotation_margin", "inconsistent_hypotheses",
        }


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = main(
            ["ode", "--config", str(CONFIGS / "cor1.ini"), "--out", str(tmp_path)]
        )
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        # the shooting report is written once, inside report.json
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

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

    def test_atlas_builds_each_family_on_the_domain_angle(self, tmp_path):
        """tan and cos_power have a pole at pi/2, inside theta0 = 2."""
        text = (CONFIGS / "atlas.ini").read_text().replace("theta0 = 1.0", "theta0 = 2.0")
        cfg, out = _write(tmp_path, "atlas.ini", text), tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"].startswith("SingularityInRange")

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

    def test_tan_member_with_negative_cos_c_passes(self, tmp_path):
        """cos(c) < 0 at c = 3; the poles are at theta ~ 2.42, outside theta0."""
        cfg = _write(
            tmp_path,
            "tan_c3.ini",
            "[scenario]\nname = tan_c3\ntag = Thm4_B1\n"
            "[domain]\na = 1\nb = 2\ntheta0 = 0.1\n"
            "[grid]\nn_s = 32\nn_theta = 32\n"
            "[family]\nkind = tan\nv = 2.0\np = -1.0\nc = 3.0\n",
        )
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["checks"]) == 7 and all(c["passed"] for c in report["checks"])

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
        (tmp_path / "stream.json").write_text(sorted_json(grid.metadata()))
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

    def test_slide_report_names_the_slide_grid(self, tmp_path):
        # [slide] n sets the grid the check runs on; the [grid] default goes unused
        scn = parse_config(CONFIGS / "slide.ini", {"slide": {"n": "24"}})
        run_scenario(scn, tmp_path)
        grid = json.loads((tmp_path / "report.json").read_text())["grid"]
        assert (grid["n_s"], grid["n_theta"]) == (24, 24) != (scn.grid.n_s, scn.grid.n_theta)
        assert (grid["s_min"], grid["s_max"], grid["theta0"], grid["a"], grid["b"]) == (
            scn.grid.s_min, scn.grid.s_max, scn.grid.theta0, 1.0, 2.0)

    @pytest.mark.parametrize("xi2", ["0.5", "2.0"])
    def test_slide_sec_spot_follows_xi2(self, xi2, tmp_path):
        # sec(theta + 0.1 xi2) - sec(theta) is least at theta = 0, so the
        # closed form's spot value at tau = 0.1 is sec(0.1 xi2) - 1
        scn = parse_config(CONFIGS / "slide.ini", {"slide": {"xi2": xi2}})
        code, report = run_scenario(scn, tmp_path)
        spot = [c for c in report["checks"] if c["name"] == "sec_spot_value"]
        assert code == 0 and spot and spot[0]["passed"], report

    def test_slide_theta_profile(self, tmp_path):
        # theta(t + tau xi2) - theta(t) is tau xi2 on every node, up to roundoff;
        # the sec spot check belongs to the sec profile alone
        cfg = _write(tmp_path, "slide.ini", "[scenario]\nname = slide\ntag = Slide\n[slide]\n"
                     "profile = theta\nn = 16\nxi1 = 1\nxi2 = 1\ntaus = 0.1,0.5\n")
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        spot = [e for e in report["sliding"]["per_tau"] if e["tau"] == 0.1][0]
        assert abs(spot["min_w"] - 0.1 * 1.0) <= 1e-12
        assert "sec_spot_value" not in [c["name"] for c in report["checks"]]


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

    def test_solve_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # at 256² the solve's vectors are long enough for OpenBLAS to thread
        # its dot products, so a BLAS reduction in GMRES would show here
        cfg = configparser.ConfigParser()
        cfg.read(CONFIGS / "thm2_a1.ini")
        cfg["grid"] = {"n_s": "256", "n_theta": "256"}
        with open(tmp_path / "thm2_a1.ini", "w") as fh:
            cfg.write(fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        procs = {
            threads: subprocess.Popen(
                [sys.executable, "-m", "sectorflow.cli", "solve", "--config",
                 str(tmp_path / "thm2_a1.ini"), "--out", str(tmp_path / threads)],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            for threads in ("1", "2")
        }
        for proc in procs.values():
            output, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, output[-2000:]
        trees = [sorted(p.relative_to(tmp_path / t) for p in (tmp_path / t).rglob("*"))
                 for t in procs]
        assert trees[0] == trees[1]
        assert {Path("solution.npy"), Path("solution.json")} <= set(trees[0])
        for rel in trees[0]:
            assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes(), rel


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
        assert not out.exists()


class TestNothingToRun:
    @pytest.mark.parametrize("taus", [",", ""])
    def test_slide_without_translations_is_config_error(self, taus, tmp_path):
        text = f"[scenario]\nname = slide\ntag = Slide\n[slide]\nn = 16\ntaus = {taus}\n"
        cfg = _write(tmp_path, "slide.ini", text)
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_slide_shift_that_leaves_no_overlap_is_config_error(self, tmp_path, capsys):
        text = "[scenario]\nname = slide\ntag = Slide\n[slide]\nn = 16\ntaus = 0.5,2\n"
        cfg = _write(tmp_path, "slide.ini", text)
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "leaves no overlap" in capsys.readouterr().err

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
        assert not out.exists()


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
        assert seen[0]["seed"] == 7 and seen[0]["tol"] == 1e-6


_SIN = "[family]\nkind = sin\nalpha = 2\np = -0.5\nc = pi/2\n"
_THM1I = "tag = Thm1i\n[grid]\nn_s = 16\nn_theta = 16\n[solver]\n"
_AB = "[domain]\na = 1\nb = 2\ntheta0 = 1.0\n"
# mistakes in a Thm2_A2 config: the family's builder finds these when the
# scenario runs, since only it knows which keys a kind needs or reads ...
_BUILDER_MISTAKES = {
    "family-key-missing": _AB + "[family]\nkind = sin\nalpha = 2\nc = 1\n",
    "family-key-unread": _AB + "[family]\nkind = radial_alpha1\np = -0.5\nsgn = -1\n",
    "family-key-of-another-kind": _AB + _SIN + "c2 = 0\n",
}
# ... and parse_config finds these
_PARSE_MISTAKES = {
    "a-above-b": "[domain]\na = 3\nb = 2\ntheta0 = 1.0\n" + _SIN,
    "s_min-off-ln-a": _AB + "[grid]\ns_min = 0.5\n" + _SIN,
    "s_min-off-ln-a-half-line": "[domain]\na = 2\nb = inf\ntheta0 = 1.0\n[grid]\ns_min = 0\n" + _SIN,
    "family-c-none-off-rational": _AB + _SIN.replace("pi/2", "none"),
}
# (subcommand, [scenario] tag and other sections, CLI flags)
_NUMBER_MISTAKES = {
    "cor1-c-nan": ("ode", "tag = Cor1\n[ode]\nc = nan\n", []),
    "cor1-p-inf": ("ode", "tag = Cor1\n[ode]\nc = 1\np = inf\n", []),
    "tol-nan": ("solve", _THM1I + "tol = nan\n", []),
    "tol-negative": ("solve", _THM1I + "tol = -1\n", []),
    "perturbation-nan": ("solve", _THM1I + "perturbation = nan\n", []),
    "perturbation-inf": ("solve", _THM1I + "perturbation = inf\n", []),
    "b-nan": ("solve", _THM1I + "b = nan\n", []),
    "cli-tol-nan": ("solve", _THM1I, ["--tol", "nan"]),
    "seed-negative": ("solve", _THM1I + "seed = -1\n", []),
    "cli-seed-negative": ("solve", _THM1I, ["--seed", "-1"]),
    "seed-2**64": ("solve", _THM1I + f"seed = {2**64}\n", []),
    "cli-seed-2**64": ("solve", _THM1I, ["--seed", str(2**64)]),
    "slide-xi1-nan": ("slide", "tag = Slide\n[slide]\nn = 16\nxi1 = nan\n", []),
    "slide-tau-nan": ("slide", "tag = Slide\n[slide]\nn = 16\ntaus = 0.1,nan\n", []),
    "slide-xi1-negative": ("slide", "tag = Slide\n[slide]\nn = 16\nxi1 = -1\n", []),
    "slide-xi2-negative": ("slide", "tag = Slide\n[slide]\nn = 16\nxi2 = -1\n", []),
    "slide-xi2-zero": ("slide", "tag = Slide\n[slide]\nn = 16\nxi2 = 0\n", []),
    "slide-tau-negative": ("slide", "tag = Slide\n[slide]\nn = 16\ntaus = -0.1\n", []),
    **{f"step-{name}": ("ode", f"tag = Cor1\n[ode]\nc = 1\nstep = {step}\n", [])
       for name, step in (("0", "0"), ("negative", "-1e-3"), ("nan", "nan"), ("10", "10"))},
}


class TestConfigMistakes:
    """Mistakes in a config exit 2 and write no report."""

    @pytest.mark.parametrize("case", [*_BUILDER_MISTAKES, *_PARSE_MISTAKES])
    def test_exits_2_without_report(self, case, tmp_path, capsys):
        sections = {**_BUILDER_MISTAKES, **_PARSE_MISTAKES}[case]
        cfg = _write(tmp_path, "bad.ini", "[scenario]\nname = bad\ntag = Thm2_A2\n" + sections)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert out.exists() == (case in _BUILDER_MISTAKES)
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, sections, flags", _NUMBER_MISTAKES.values(),
                             ids=_NUMBER_MISTAKES)
    def test_non_finite_or_out_of_range_number_exits_2(self, cmd, sections, flags, tmp_path):
        cfg = _write(tmp_path, "bad.ini", "[scenario]\nname = bad\n" + sections)
        out = tmp_path / "out"
        assert main([cmd, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", [4, 7])
    def test_slide_below_8_cells_exits_2(self, n, tmp_path, capsys):
        cfg = _write(tmp_path, "slide.ini",
                     f"[scenario]\nname = slide\ntag = Slide\n[slide]\nn = {n}\n")
        out = tmp_path / "out"
        assert main(["slide", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
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
        (tmp_path / "stream.json").write_text(sorted_json(other.metadata()))
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.npy", capsys)
        assert code == 2 and not (out / "report.json").exists()
        assert "describes another grid" in captured.err

    def test_verify_npy_with_a_sidecar_not_json_exits_2(self, tmp_path, capsys):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)  # the verify.ini grid
        np.save(tmp_path / "stream.npy", np.ones(grid.shape))
        (tmp_path / "stream.json").write_text("n_s = 64\n", encoding="utf-8")
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.npy", capsys)
        assert code == 2 and not (out / "report.json").exists()
        assert "is not a JSON grid description" in captured.err

    def test_verify_npy_of_another_shape_exits_2(self, tmp_path, capsys):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)  # the verify.ini grid
        np.save(tmp_path / "stream.npy", np.ones((10, 10)))
        (tmp_path / "stream.json").write_text(sorted_json(grid.metadata()))
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.npy", capsys)
        assert code == 2 and not (out / "report.json").exists()
        assert "(10, 10) array" in captured.err

    def test_verify_empty_npy_is_a_grid_error(self, tmp_path, capsys):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)  # the verify.ini grid
        (tmp_path / "stream.npy").write_bytes(b"")
        (tmp_path / "stream.json").write_text(sorted_json(grid.metadata()))
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.npy", capsys)
        report = json.loads((out / "report.json").read_text())
        assert code == 3 and report["error"].startswith("GridError: ")
        assert "stream.npy is not a readable .npy array" in report["error"]
        assert "numerical failure: GridError: " in captured.out

    @pytest.mark.parametrize("section, key", [
        ("scenario", "nmae"), ("domain", "theta_0"), ("grid", "ns"), ("solver", "tolerance"),
        ("ode", "f0count"), ("slide", "tau"), ("verify", "psi_cvs"),
    ])
    def test_unknown_key_exits_2(self, section, key, tmp_path, capsys):
        header = "" if section == "scenario" else f"[{section}]\n"
        text = f"[scenario]\nname = bad\ntag = Slide\n{header}{key} = 1\n"
        with pytest.raises(ConfigError, match=rf"unknown config key \[{section}\] {key}$"):
            parse_config(_write(tmp_path, "bad.ini", text))
        out = tmp_path / "out"
        assert main(["slide", "--config", str(tmp_path / "bad.ini"), "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_non_utf8_csv_is_a_grid_error_naming_the_file(self, tmp_path, capsys):
        (tmp_path / "stream.csv").write_bytes(b"s,theta,value\n0.0,0.0,1.0\xff\n")
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.csv", capsys)
        report = json.loads((out / "report.json").read_text())
        assert code == 3 and report["error"].startswith("GridError: ")
        assert "stream.csv is not UTF-8 text" in report["error"]
        assert "numerical failure: GridError: " in captured.out

    def test_verify_non_utf8_sidecar_is_a_grid_error_naming_it(self, tmp_path, capsys):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)  # the verify.ini grid
        np.save(tmp_path / "stream.npy", np.ones(grid.shape))
        (tmp_path / "stream.json").write_bytes(b'{"\xff": 1}')
        code, out, captured = self._verify(tmp_path, tmp_path / "stream.npy", capsys)
        report = json.loads((out / "report.json").read_text())
        assert code == 3 and report["error"].startswith("GridError: ")
        assert "stream.json is not UTF-8 text" in report["error"]
        assert "numerical failure: GridError: " in captured.out

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


class TestBatchNames:
    """A batch writes each scenario to out/<name>: a name that leaves out or
    is taken exits 2 before any scenario runs, and writes nothing."""

    @staticmethod
    def _batch(tmp_path, names):
        for k, name in enumerate(names):
            _write(tmp_path, f"s{k}.ini", "[scenario]\n"
                   f"name = {name}\ntag = Slide\n[slide]\nn = 16\n")
        listed = ", ".join(f"s{k}.ini" for k in range(len(names)))
        cfg = _write(tmp_path, "batch.ini", f"[batch]\nscenarios = {listed}\n")
        (tmp_path / "runs").mkdir()
        return main(["batch", "--config", str(cfg), "--out", str(tmp_path / "runs" / "out")])

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "..", ".", ""])
    def test_name_that_is_no_plain_directory_exits_2(self, name, tmp_path, capsys):
        assert self._batch(tmp_path, ["ok", name]) == 2
        assert not any((tmp_path / "runs").iterdir())
        assert "not a plain directory name" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [["thm2_a2", "other", "thm2_a2"], ["summary.json"]])
    def test_taken_name_exits_2(self, names, tmp_path, capsys):
        assert self._batch(tmp_path, names) == 2
        assert not any((tmp_path / "runs").iterdir())
        assert "is already taken" in capsys.readouterr().err


def test_failed_solve_keeps_its_solve_report(tmp_path):
    scn = parse_config(CONFIGS / "thm2_a1.ini",
                       {"grid": {"n_s": 16, "n_theta": 16}, "solver": {"tol": 1e-30}})
    code, report = run_scenario(scn, tmp_path / "out")
    assert code == 3 and report["error"].startswith("NoConvergence")
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    rep = saved["solve_report"]
    assert rep["converged"] is False and all(rep["krylov_converged"])
    assert len(rep["residual_history"]) == rep["iterations"] + 1
    assert rep["residual_history"][-1] == rep["final_residual"] > 1e-30


_FAILED_RUNS = {
    # the tan member's pole at pi/2 is met after the radial member's profile exists
    "atlas-pole": ("atlas.ini", {"domain": {"theta0": "2"}}, "SingularityInRange"),
    # the solve fails after the g-scatter exists
    "no-convergence": ("thm2_a1.ini", {"grid": {"n_s": "16", "n_theta": "16"},
                                       "solver": {"tol": "1e-30"}}, "NoConvergence"),
    # 7 x 7 interior nodes, below recover_g's 100 samples
    "verify-few-samples": ("verify.ini", {"grid": {"n_s": "8", "n_theta": "8"},
                                          "verify": {"psi_csv": "psi.csv"}}, "PipelineFailure"),
}


@pytest.mark.parametrize("case", _FAILED_RUNS)
def test_a_failed_run_writes_only_its_report(case, tmp_path, monkeypatch):
    cfg, overrides, error = _FAILED_RUNS[case]
    grid = LogPolarGrid(0.0, math.log(2), 8, 8, 1.0)  # Verify's
    sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
    (tmp_path / "psi.csv").write_text(field_to_csv(sample_stream(sol, grid)))
    monkeypatch.chdir(tmp_path)
    code, report = run_scenario(parse_config(CONFIGS / cfg, overrides), tmp_path / "out")
    assert code == 3 and report["error"].startswith(error)
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]


@pytest.mark.parametrize("n_s,names", [(511, ["stream.json", "stream.npy"]), (510, ["stream.csv"])])
def test_family_run_exports_its_stream_as_npy_from_512_squared_nodes(n_s, names, tmp_path):
    """512^2 nodes (511 cells a side) is the smallest grid whose stream is
    exported as .npy; one s-row fewer is exported as CSV."""
    scn = parse_config(CONFIGS / "thm2_a3.ini", {"grid": {"n_s": n_s, "n_theta": 511}})
    code, _ = run_scenario(scn, tmp_path)
    assert code == 0 and sorted(p.name for p in tmp_path.glob("stream.*")) == names


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


@pytest.mark.parametrize("cfg,form,key", [("thm1ii", "ExpForm", "K"),
                                          ("thm2_a1", "PowerForm", "C")])
def test_solve_with_a_wrong_g_fails_on_profile_error(cfg, form, key, tmp_path, monkeypatch):
    """A wrong g constant still gives an s-free solution, so only the
    comparison with the family's trace h(theta) can see it."""
    from sectorflow import elliptic

    real = getattr(elliptic, form)

    def scaled(*args, **kwargs):
        g = real(*args, **kwargs)
        return dataclasses.replace(g, **{key: 1.5 * getattr(g, key)})

    monkeypatch.setattr(elliptic, form, scaled)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(CONFIGS / f"{cfg}.ini"), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["profile_error"]


# Thm1i is left out: its psi = b theta / theta0 is harmonic, so Verify's
# g_single_valued bound, 0.05 max |lap psi|, falls to roundoff and its
# 2e-12 defect fails it.
@pytest.mark.parametrize("cfg", ["thm1ii", "thm2_a1"])
def test_verify_passes_the_solvers_solution_export(cfg, tmp_path):
    """The solver exports the stream psi, not the working-frame Psi, so
    Verify certifies the field the solve produced."""
    solve = configparser.ConfigParser()
    solve.read(CONFIGS / f"{cfg}.ini")
    assert main(["solve", "--config", str(CONFIGS / f"{cfg}.ini"),
                 "--out", str(tmp_path / "solve")]) == 0
    verify = configparser.ConfigParser()
    verify.read(CONFIGS / "verify.ini")
    verify["domain"], verify["grid"] = solve["domain"], solve["grid"]
    verify["verify"]["psi_csv"] = str(tmp_path / "solve" / "solution.npy")
    with open(tmp_path / "verify.ini", "w") as fh:
        verify.write(fh)
    assert main(["verify", "--config", str(tmp_path / "verify.ini"),
                 "--out", str(tmp_path / "verify")]) == 0


@pytest.mark.parametrize("cfg", ["thm1i", "thm1ii", "thm2_a1"])
def test_solution_export_is_the_stream_of_the_solved_field(cfg, tmp_path, monkeypatch):
    """solution.npy holds from_working of the solver's Psi, bit for bit,
    and no CSV copy is written."""
    from sectorflow import elliptic

    solved = []
    real = elliptic.solve_semilinear

    def spy(grid, gspec, frame, h, **kwargs):
        Psi, rep = real(grid, gspec, frame, h, **kwargs)
        solved.append((grid, frame, Psi))
        return Psi, rep

    monkeypatch.setattr(elliptic, "solve_semilinear", spy)
    scn = parse_config(CONFIGS / f"{cfg}.ini", {"grid": {"n_s": 16, "n_theta": 16}})
    run_scenario(scn, tmp_path)
    (grid, frame, Psi), = solved
    back = fields.read_field(tmp_path / "solution.npy", grid)
    assert (back.vals == elliptic.from_working(grid.s_nodes[:, None], Psi.vals, frame)).all()
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("text", [
    "[batch]\nscenarios = ,\n", "[batch]\nscenarios =\n", "[batch]\nscenarios = , ,\n",
    "[batch]\n", "",
], ids=["comma", "empty", "commas", "no-key", "no-section"])
def test_batch_without_scenarios_exits_2(text, tmp_path, capsys):
    """A batch that lists no scenario is a mistake, not a pass."""
    cfg = _write(tmp_path, "batch.ini", text)
    out = tmp_path / "out"
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "batch config needs [batch] scenarios" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[batch]\nscenarios = good.ini\nscenarois = x.ini\n", r"unknown config key \[batch\] scenarois"),
    ("[batch]\nscenarios = good.ini\n[extra]\nkey = 1\n", r"unknown config section \[extra\]"),
], ids=["misspelt-key", "extra-section"])
def test_batch_file_with_an_unknown_key_or_section_exits_2(text, message, tmp_path, capsys):
    """A batch file is checked as a scenario file is: nothing is run or written."""
    _write(tmp_path, "good.ini", (CONFIGS / "slide.ini").read_text())
    cfg = _write(tmp_path, "batch.ini", text)
    out = tmp_path / "out"
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match=message):
        run_batch(cfg, out)


def test_rigidity_solve_samples_the_stream_once_from_256_cells(tmp_path, monkeypatch):
    """From n = 256 on, g is recovered on the certified grid itself, from the
    stream and Laplacian that certification already sampled."""
    calls = []
    sample = fields.sample_stream
    monkeypatch.setattr(fields, "sample_stream", lambda sol, grid: calls.append(grid.n_s)
                        or sample(sol, grid))
    for n in (64, 256):
        text = (CONFIGS / "thm1ii.ini").read_text().replace("n_s = 64", f"n_s = {n}")
        cfg = _write(tmp_path, f"thm1ii-{n}.ini", text.replace("n_theta = 64", f"n_theta = {n}"))
        assert run_scenario(parse_config(cfg), tmp_path / f"out-{n}")[0] == 0
    assert calls == [64, 256, 256]


def test_report_writer_takes_numpy_values():
    """The JSON serializer writes a numpy scalar or array as its Python value."""
    text = sorted_json({"f": np.float64(0.1), "g": np.float32(0.5),
                        "i": np.int64(3), "b": np.bool_(True),
                        "a": np.arange(2.0), "m": np.eye(2, dtype=int)})
    assert text == json.dumps(
        {"a": [0.0, 1.0], "b": True, "f": 0.1, "g": 0.5, "i": 3, "m": [[1, 0], [0, 1]]},
        sort_keys=True, indent=2) + "\n"


def test_batch_with_a_bad_domain_later_writes_nothing(tmp_path, capsys):
    """Every entry's domain and grid are built before the first one runs."""
    _write(tmp_path, "good.ini", (CONFIGS / "slide.ini").read_text())
    _write(tmp_path, "bad.ini", "[scenario]\nname = bad\ntag = Slide\n"
           "[domain]\na = 3\nb = 2\n[slide]\nn = 16\n")
    cfg = _write(tmp_path, "batch.ini", "[batch]\nscenarios = good.ini, bad.ini\n")
    out = tmp_path / "out"
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ConfigError):
        run_batch(cfg, out)
    assert not out.exists()


def _parse_time_mistakes():
    """(id, config text) of every parse-time mistake the tests above run."""
    for case, (_, sections, flags) in _NUMBER_MISTAKES.items():
        if not flags:
            yield case, "[scenario]\nname = bad\n" + sections
    for case, sections in _PARSE_MISTAKES.items():
        yield case, "[scenario]\nname = bad\ntag = Thm2_A2\n" + sections
    for n in (4, 7):
        yield f"slide-n-{n}", f"[scenario]\nname = slide\ntag = Slide\n[slide]\nn = {n}\n"
    for name, taus in (("comma", ","), ("empty", "")):
        yield (f"slide-taus-{name}",
               f"[scenario]\nname = slide\ntag = Slide\n[slide]\nn = 16\ntaus = {taus}\n")
    for count in ("0", "-3"):
        yield (f"cor1-f0_count-{count}", "[scenario]\nname = cor1\ntag = Cor1\n"
               f"[ode]\nc = 1\np = 0.5\nf0_count = {count}\n")
    yield "grid-fraction", _B2_SECTIONS + "[grid]\nn_s = 64.5\nn_theta = 64\n"


@pytest.mark.parametrize("text", [text for _, text in _parse_time_mistakes()],
                         ids=[case for case, _ in _parse_time_mistakes()])
def test_batch_with_a_parse_time_mistake_in_its_second_entry_writes_nothing(text, tmp_path):
    good = (CONFIGS / "slide.ini").read_text().replace("name = slide", "name = good")
    _write(tmp_path, "good.ini", good)
    _write(tmp_path, "bad.ini", text)
    cfg = _write(tmp_path, "batch.ini", "[batch]\nscenarios = good.ini, bad.ini\n")
    out = tmp_path / "out"
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
