"""`import sectorflow` stays light: SciPy is a large import (setup time and
resident memory of every run) that no module needs; the package runs without
it installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
