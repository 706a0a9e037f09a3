"""The bytes every shipped config writes, pinned by SHA-256.

``shipped_digests.json`` holds, for each config under ``configs/`` (the
batch file included) and for Verify on a 64^2 Thm1ii-family stream written
here, the exit code, the stdout and the SHA-256 of every file the run puts
under ``--out``.  The test reruns them in-process and lists every
difference, so "byte-identical against the parent" is a test, not a claim.

A change that moves an output byte rewrites the manifest in the same
commit, and the manifest's diff is the record of what moved::

    PYTHONPATH=src python tests/test_shipped_digests.py

The digests hold for the numpy version and platform stored with them; on
another pair the test fails and names both, since the last bits of a solve
may differ there.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorflow import FamilyKind, construct_exact, field_to_csv, sample_stream
from sectorflow.cli import main
from sectorflow.domain import LogPolarGrid, sorted_json
from sectorflow.scenarios import TAGS, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MANIFEST = Path(__file__).with_name("shipped_digests.json")


def _environment():
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def _command(config: Path) -> str:
    return "batch" if config.name == "batch.ini" else TAGS[parse_config(config).tag].subcommand


def _run(argv, out: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(out)])
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit_code": code, "stdout": stdout.getvalue(), "files": files}


def shipped_runs(work: Path) -> dict:
    """Each shipped config's run into ``work``, keyed by config file name."""
    runs = {}
    for config in sorted(CONFIGS.glob("*.ini")):
        if config.name != "verify.ini":
            runs[config.name] = _run([_command(config), "--config", str(config)],
                                     work / config.stem)
    # verify.ini reads stream.csv from the working directory
    grid = LogPolarGrid(0.0, math.log(2.0), 64, 64, 1.0)
    sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
    (work / "stream.csv").write_text(field_to_csv(sample_stream(sol, grid)))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runs["verify.ini"] = _run(["verify", "--config", str(CONFIGS / "verify.ini")],
                                  work / "verify")
    finally:
        os.chdir(cwd)
    return runs


def _differences(pinned: dict, runs: dict) -> list[str]:
    diffs = [f"{name}: run missing" for name in pinned if name not in runs]
    diffs += [f"{name}: run not in the manifest" for name in runs if name not in pinned]
    for name in sorted(set(pinned) & set(runs)):
        want, got = pinned[name], runs[name]
        if want["exit_code"] != got["exit_code"]:
            diffs.append(f"{name}: exit code {want['exit_code']} -> {got['exit_code']}")
        if want["stdout"] != got["stdout"]:
            diffs.append(f"{name}: stdout changed")
        for rel in sorted(set(want["files"]) | set(got["files"])):
            old, new = want["files"].get(rel), got["files"].get(rel)
            if old != new:
                state = "new" if old is None else "missing" if new is None else "changed"
                diffs.append(f"{name}: {rel} {state}")
    return diffs


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """(work directory, runs) of one shipped_runs pass shared by this module."""
    work = tmp_path_factory.mktemp("shipped")
    return work, shipped_runs(work)


def test_shipped_outputs_match_the_manifest(shipped):
    manifest = json.loads(MANIFEST.read_text())
    pinned_env = {key: manifest[key] for key in _environment()}
    assert pinned_env == _environment(), (
        f"the manifest was written with numpy {pinned_env['numpy']} on "
        f"{pinned_env['platform']}; this is numpy {np.__version__} on "
        f"{_environment()['platform']}: rewrite it here and check its diff")
    diffs = _differences(manifest["runs"], shipped[1])
    if diffs:
        pytest.fail("outputs differ from tests/shipped_digests.json:\n" + "\n".join(diffs))


def test_every_shipped_json_file_is_in_the_one_format(shipped):
    """Reports, batch summaries and .npy grid sidecars all come from one
    serializer: each .json file a shipped config writes is sorted_json of
    its own parsed content."""
    work, runs = shipped
    written = sorted(work.rglob("*.json"))
    names = {p.name for p in written}
    assert {"report.json", "summary.json", "solution.json"} <= names
    for path in written:
        text = path.read_text()
        assert text == sorted_json(json.loads(text)), path.relative_to(work)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        manifest = {**_environment(), "runs": shipped_runs(Path(work))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
