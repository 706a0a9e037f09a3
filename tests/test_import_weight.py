"""`import sectorflow` stays light: SciPy is a large import (setup time and
resident memory of every run) that no module needs; the package runs without
it installed.  A run loads only numpy's core and numpy.fft: no numpy.random
(with hashlib, secrets and the Cython runtime) and no LAPACK least squares."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def test_import_does_not_load_scipy_interpolate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, sectorflow; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_import_loads_no_scipy():
    assert _python(f"import sys, sectorflow; print({SCIPY_LOADED})") == "[]"


def test_solve_loads_no_scipy(tmp_path):
    # thm2_a1 runs the Newton solve and its preconditioner's transforms
    code = (
        "import sys\n"
        "from sectorflow.scenarios import parse_config, run_scenario\n"
        "assert run_scenario(parse_config(sys.argv[1]), sys.argv[2])[0] == 0\n"
        f"print({SCIPY_LOADED})\n"
    )
    assert _python(code, ROOT / "configs" / "thm2_a1.ini", tmp_path) == "[]"


def _solve_then_verify(out):
    """Exit codes of the shipped thm2_a1 solve, whose start is the seeded
    perturbation and whose g-recovery fits the log laws, and of Verify on the
    solution.npy it exports."""
    from sectorflow.scenarios import parse_config, run_scenario

    solve = run_scenario(parse_config(CONFIGS / "thm2_a1.ini"), out / "solve")[0]
    scn = parse_config(CONFIGS / "verify.ini",
                       {"verify": {"psi_csv": str(out / "solve" / "solution.npy")}})
    return solve, run_scenario(scn, out / "verify")[0]


def test_solve_and_verify_load_no_numpy_random(tmp_path):
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_import_weight import _solve_then_verify\n"
        "assert _solve_then_verify(Path(sys.argv[2])) == (0, 0)\n"
        "print([m for m in sys.modules if m.startswith('numpy.random')])\n"
    )
    assert _python(code, ROOT / "tests", tmp_path) == "[]"


def test_solve_and_verify_run_without_lapack_least_squares(tmp_path, monkeypatch):
    # every numpy and sectorflow binding of lstsq and svd, numpy.linalg's own
    # and np.polyfit's module-level import among them, raises an error no
    # pipeline catches
    def refuse(*args, **kwargs):
        raise AssertionError("a run called LAPACK least squares")

    for name in ("lstsq", "svd"):
        original = getattr(np.linalg, name)
        for package, module in list(sys.modules.items()):
            if (package.partition(".")[0] in ("numpy", "sectorflow")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        np.polyfit([0.0, 1.0, 2.0], [1.0, 2.0, 4.0], 1)
    assert _solve_then_verify(tmp_path) == (0, 0)


def test_splu_alias_resolves_to_scipy():
    import scipy.sparse.linalg

    from sectorflow import elliptic

    assert elliptic.splu is scipy.sparse.linalg.splu


def test_unknown_elliptic_attribute_raises():
    from sectorflow import elliptic

    with pytest.raises(AttributeError):
        elliptic.no_such_name


@pytest.mark.parametrize("cmd, config", [("solve", "thm2_a1.ini"), ("exact", "thm3.ini")])
def test_runs_without_scipy(cmd, config, tmp_path):
    # a None entry in sys.modules makes every scipy import fail, as if it
    # were not installed; the trees match a run that may import it
    code = (
        "import sys\n"
        "if sys.argv[1] == 'block':\n"
        "    sys.modules['scipy'] = None\n"
        "from sectorflow.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    stdout = [_python(code, mode, cmd, "--config", ROOT / "configs" / config,
                      "--out", tmp_path / mode) for mode in ("block", "open")]
    assert stdout[0] == stdout[1]
    trees = [sorted(p.relative_to(tmp_path / m) for p in (tmp_path / m).rglob("*"))
             for m in ("block", "open")]
    assert trees[0] == trees[1] and trees[0]
    for rel in trees[0]:
        assert (tmp_path / "block" / rel).read_bytes() == (tmp_path / "open" / rel).read_bytes(), rel
