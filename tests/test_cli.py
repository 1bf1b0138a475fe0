"""End-to-end runs of every subcommand on a tiny grid, and the exit codes."""

import json
import math

import pytest

from poistomo import cli

TINY_INI = """
[grid]
nx = 8
ny = 8

[prior]
n_modes = 24

[operator]
n_angles = 6
n_det = 8

[sampler]
n_samples = 200
burn_in = 20

[map]
max_outer = 5
inner_iters = 5

[calibration]
weight_grid = 0.0, 1.0
chain_steps = 100
max_eval_samples = 50
select_iters = 3
select_inner_steps = 20
"""

PIPELINE = ("phantom", "simulate", "calibrate", "sample", "summarize",
            "detect", "diag")


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI, encoding="utf-8")
    return path


def _run(command, ini, outdir, *extra):
    return cli.main([command, "--config", str(ini), "--output", str(outdir),
                     "--seed", "3", *extra])


def test_every_subcommand_runs_with_the_default_kernel(tmp_path, tiny_ini):
    # the default sampler kind is pdpcn, so `sample` solves the MAP problem
    # and anchors the chain at it
    out = tmp_path / "out"
    for command in PIPELINE:
        assert _run(command, tiny_ini, out) == 0, command
        assert (out / f"{command}_manifest.json").is_file(), command
    for command in PIPELINE:
        cost = json.loads((out / f"{command}_manifest.json").read_text())
        for key in ("wall_s", "peak_rss_mb"):
            assert math.isfinite(cost[key]) and cost[key] > 0, (command, key)
    manifest = json.loads((out / "sample_manifest.json").read_text())
    assert manifest["map_converged"] in (True, False)
    assert (out / "map_residuals.csv").is_file()
    assert 0.0 <= manifest["acceptance_rate"] <= 1.0


def test_unknown_config_key_is_a_usage_error(tmp_path, tiny_ini):
    # the removed dual-sign switch is now an unknown key like any other
    bad = tmp_path / "bad.ini"
    bad.write_text(TINY_INI.replace("inner_iters = 5",
                                    "inner_iters = 5\npaper_dual_sign = true"),
                   encoding="utf-8")
    assert _run("phantom", bad, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "phantom_manifest.json").exists()


def test_missing_chain_is_a_runtime_error(tmp_path, tiny_ini):
    out = tmp_path / "empty"
    assert _run("summarize", tiny_ini, out) == 3
    assert not (out / "summarize_manifest.json").exists()


def _kernel_ini(tmp_path, kind, sampler="", model=""):
    path = tmp_path / f"{kind}.ini"
    text = TINY_INI.replace("[sampler]\n",
                            f"[sampler]\nkind = {kind}\n{sampler}")
    path.write_text(text + f"\n[model]\n{model}\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("kind, sampler, model", [
    ("pcn", "autotune = true\n", ""),
    ("pcnl", "", "tv_weight = 0\n"),
])
def test_every_kernel_runs_through_the_cli(tmp_path, kind, sampler, model):
    ini = _kernel_ini(tmp_path, kind, sampler, model)
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "sample", "summarize", "diag"):
        assert _run(command, ini, out) == 0, command
        assert (out / f"{command}_manifest.json").is_file(), command
    sidecar = json.loads((out / "chain.bin.json").read_text())
    assert sidecar["kind"] == kind
    assert 0.0 <= sidecar["acceptance_rate"] <= 1.0


def test_gradient_kernel_with_tv_is_a_usage_error(tmp_path):
    # pcnl needs a differentiable potential; the default TV weight is 1
    ini = _kernel_ini(tmp_path, "pcnl")
    out = tmp_path / "out"
    for command in ("phantom", "simulate"):
        assert _run(command, ini, out) == 0, command
    assert _run("sample", ini, out) == 2
    assert not (out / "sample_manifest.json").exists()
    assert not (out / "chain.bin").exists()
