"""End-to-end runs of every subcommand on a tiny grid, their reports, and
the exit codes."""

import configparser
import dataclasses
import hashlib
import json
import logging
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from poistomo import (Grid, KLBasis, ScalarField, acf_matrix, cli, ess_matrix,
                      load_chain)
from poistomo.fields import read_field_csv, write_field_csv
from poistomo.samplers import Chain, RunMatrix

from test_samplers import _HEADER, _record, _with_record, _write_chain

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

BENCH_TINY = Path(__file__).resolve().parents[1] / "bench" / "tiny.ini"

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
    # the desk preset tunes delta in the burn-in and keeps every 10th state;
    # the chain file records the frozen delta the manifest reports
    record = _record(out / "chain.bin")
    assert (record["delta"], record["thinning"]) == (manifest["stepsize"], 10)
    assert manifest["stepsize"] != 0.1      # tuned, not the default delta
    assert (out / "map_residuals.csv").is_file()
    assert 0.0 <= manifest["acceptance_rate"] <= 1.0
    # diag counts the chain's stored runs: one more than the kept rows that
    # differ from the row before
    rows = np.asarray(load_chain(out / "chain.bin").samples)
    moves = int(np.any(rows[1:] != rows[:-1], axis=1).sum())
    diag = json.loads((out / "diag_manifest.json").read_text())
    assert diag["distinct_states"] == 1 + moves
    # the file holds the header, a row of 24 modes and a length per run,
    # then the record
    assert (out / "chain.bin").stat().st_size == \
        _HEADER.size + 8 * diag["distinct_states"] * (24 + 1) + \
        len(json.dumps(_record(out / "chain.bin")))
    assert not (out / "chain.bin.json").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("this command should not build it")


def test_chain_commands_build_no_operator(tmp_path, tiny_ini, monkeypatch):
    # summarize, detect and diag read a chain and need the KL basis at most
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "sample"):
        assert _run(command, tiny_ini, out) == 0, command
    monkeypatch.setattr(cli, "build_radon_operator", _refuse)
    for command in ("summarize", "detect", "diag"):
        assert _run(command, tiny_ini, out) == 0, command


def test_simulate_builds_no_basis(tmp_path, tiny_ini, monkeypatch):
    out = tmp_path / "out"
    assert _run("phantom", tiny_ini, out) == 0
    monkeypatch.setattr(cli, "build_kl_basis", _refuse)
    assert _run("simulate", tiny_ini, out) == 0


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
    ("pcn", "beta = none\n", ""),
    ("pdpcn", "", "tv_weight = 0\n"),
])
def test_every_kernel_runs_through_the_cli(tmp_path, kind, sampler, model):
    # pdpcn without TV: the MAP multiplier is zero, so the chain from the MAP
    # point runs the pCN-Langevin kernel
    ini = _kernel_ini(tmp_path, kind, sampler, model)
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "sample", "summarize", "diag"):
        assert _run(command, ini, out) == 0, command
        assert (out / f"{command}_manifest.json").is_file(), command
    record = _record(out / "chain.bin")
    assert record["kind"] == kind
    assert 0.0 <= record["acceptance_rate"] <= 1.0
    manifest = json.loads((out / "sample_manifest.json").read_text())
    assert manifest["stepsize"] == record["beta" if kind == "pcn"
                                          else "delta"]
    if "none" in sampler:
        # the chain tunes beta in its burn-in, so it moves, and its file
        # records the frozen beta
        assert record["acceptance_rate"] > 0.0
        assert 0.0 < manifest["stepsize"] <= 1.0
        assert load_chain(out / "chain.bin").config.beta == \
            manifest["stepsize"]


def test_tuned_sample_draws_one_stream(tmp_path, monkeypatch):
    # the burn-in tunes the stepsize, so no pilot seeds a second generator
    # with the chain's seed
    ini = _kernel_ini(tmp_path, "pcn", "beta = none\n")
    out = tmp_path / "out"
    for command in ("phantom", "simulate"):
        assert _run(command, ini, out) == 0, command
    seeds = []
    default_rng = np.random.default_rng

    def recorded(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    assert _run("sample", ini, out) == 0
    assert seeds == [3]


def test_retired_pcnl_kind_is_a_usage_error(tmp_path, sampled, capsys):
    # pCN-Langevin is pdpcn at a zero multiplier, so the kind names just pcn
    # and pdpcn: a config or a chain file that names pcnl exits 2
    ini, src = sampled
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run("sample", _kernel_ini(tmp_path, "pcnl"), out, "--sinogram",
                str(src / "sinogram.bin")) == 2
    assert "('pcn', 'pdpcn'), got 'pcnl'" in capsys.readouterr().err
    assert not (out / "sample_manifest.json").exists()
    assert not (out / "chain.bin").exists()
    old = tmp_path / "pcnl.bin"
    old.write_bytes((src / "chain.bin").read_bytes())
    _with_record(old, {**_record(old), "kind": "pcnl"})
    image = ("--test-image", str(src / "phantom.csv"))
    for command, extra in (("summarize", ()), ("detect", image), ("diag", ())):
        capsys.readouterr()
        assert _run(command, ini, out, "--chain", str(old), *extra) == 2
        assert f"{old}: bad record" in capsys.readouterr().err, command
        assert not (out / f"{command}_manifest.json").exists()


def test_untunable_calibration_is_a_usage_error(tmp_path, tiny_ini, capsys):
    # beta none is tuned in each sweep chain's burn-in, a tenth of its 9
    # steps: refused at config parse, before the operator and the basis
    ini = _kernel_ini(tmp_path, "pcn", "beta = none\n")
    ini.write_text(ini.read_text().replace("chain_steps = 100",
                                           "chain_steps = 9"))
    out = tmp_path / "out"
    for command in ("phantom", "simulate"):
        assert _run(command, tiny_ini, out) == 0, command
    written = sorted(out.iterdir())
    capsys.readouterr()
    assert _run("calibrate", ini, out) == 2
    assert "chain_steps" in capsys.readouterr().err
    assert sorted(out.iterdir()) == written


def test_sampler_that_keeps_no_state_is_a_usage_error(tmp_path, tiny_ini):
    # 180 post-burn-in steps, every 500th kept: refused before the MAP solve
    # and the chain, not reported as a chain of no samples
    ini = _kernel_ini(tmp_path, "pdpcn", sampler="thinning = 500\n")
    out = tmp_path / "out"
    for command in ("phantom", "simulate"):
        assert _run(command, tiny_ini, out) == 0, command
    assert _run("sample", ini, out) == 2
    assert not (out / "sample_manifest.json").exists()
    assert not (out / "chain.bin").exists()


def test_diag_refuses_a_negative_max_lag(tmp_path, tiny_ini):
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "sample"):
        assert _run(command, tiny_ini, out) == 0, command
    assert _run("diag", tiny_ini, out, "--max-lag", "-5") == 2
    assert not (out / "acf.csv").exists()
    assert not (out / "diag_manifest.json").exists()
    # lag 0 alone: one row of the eight exported series
    assert _run("diag", tiny_ini, out, "--max-lag", "0") == 0
    lines = (out / "acf.csv").read_text().splitlines()
    assert lines == ["lag," + ",".join(f"coeff{j}" for j in range(8)),
                     "0," + ",".join(["1"] * 8)]


def test_chain_commands_refuse_a_chain_they_cannot_use(tmp_path, tiny_ini,
                                                       capsys):
    # a chain of 24 modes against a 20-mode basis: summarize and detect
    # both refuse it with the same message, before any synthesis
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "sample"):
        assert _run(command, tiny_ini, out) == 0, command
    narrow = tmp_path / "narrow.ini"
    narrow.write_text(TINY_INI.replace("n_modes = 24", "n_modes = 20"),
                      encoding="utf-8")
    for command in ("summarize", "detect"):
        capsys.readouterr()
        assert _run(command, narrow, out) == 2, command
        assert "chain has 24 modes, basis has 20" in capsys.readouterr().err
        assert not (out / f"{command}_manifest.json").exists()
    # a record that lacks a config field is named, not filled in
    record = _record(out / "chain.bin")
    del record["burn_in"]
    _with_record(out / "chain.bin", record)
    capsys.readouterr()
    assert _run("diag", tiny_ini, out) == 2
    assert "'burn_in'" in capsys.readouterr().err
    assert not (out / "diag_manifest.json").exists()


def test_calibrate_selects_a_weight_inside_the_interval(tmp_path, tiny_ini,
                                                        monkeypatch):
    # the tiny grid admits no interval, so one is set here to reach the
    # selection and its report
    search = cli.admissible_search

    def admits(*args, **kwargs):
        return dataclasses.replace(search(*args, **kwargs),
                                   interval=(0.5, 1.5))

    monkeypatch.setattr(cli, "admissible_search", admits)
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "calibrate"):
        assert _run(command, tiny_ini, out) == 0, command
    manifest = json.loads((out / "calibrate_manifest.json").read_text())
    assert manifest["interval"] == [0.5, 1.5]
    assert 0.5 <= manifest["tv_weight_selected"] <= 1.5
    assert manifest["tv_weight_at_bound"] == \
        (manifest["tv_weight_selected"] in (0.5, 1.5))
    assert "selection.csv" in manifest["outputs"]
    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[0] == "iteration,tv_weight,gradient"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    assert float(lines[-1].split(",")[1]) == manifest["tv_weight_selected"]


def test_calibrate_says_whether_the_weight_is_at_a_bound(tmp_path, caplog):
    # bench/tiny.ini admits no interval at seed 1 in the default band; with
    # its upper end at 0.9 the interval is (0, 1), and the manifest and the
    # log say whether the selection ended at an end of it
    parser = configparser.ConfigParser()
    parser.read(BENCH_TINY)
    parser["calibration"]["band_hi"] = "0.9"
    ini = tmp_path / "band.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="poistomo.cli"):
        for command in ("phantom", "simulate", "calibrate"):
            assert cli.main([command, "--config", str(ini), "--output",
                             str(out), "--seed", "1"]) == 0, command
    manifest = json.loads((out / "calibrate_manifest.json").read_text())
    lo, hi = manifest["interval"]
    weight, at_bound = (manifest["tv_weight_selected"],
                        manifest["tv_weight_at_bound"])
    assert type(at_bound) is bool
    assert at_bound == (weight in (max(lo, 1e-8), hi))
    assert at_bound == any("end of the interval" in r.getMessage()
                           for r in caplog.records)


def test_calibrate_on_one_weight_finds_no_interval(tmp_path):
    # bench/tiny.ini's p-value at weight 0 lies in a band reaching 0.9: the
    # band is met at that one weight only, which is no interval to select in
    parser = configparser.ConfigParser()
    parser.read(BENCH_TINY)
    parser["calibration"]["weight_grid"] = "0.0"
    parser["calibration"]["band_hi"] = "0.9"
    ini = tmp_path / "one.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "calibrate"):
        assert cli.main([command, "--config", str(ini), "--output",
                         str(out), "--seed", "1"]) == 0, command
    rows = (out / "calibration.csv").read_text().splitlines()
    assert len(rows) == 2
    lo, hi = cli.parse_config(ini).calibration.band
    assert lo <= float(rows[1].split(",")[1]) <= hi
    manifest = json.loads((out / "calibrate_manifest.json").read_text())
    assert manifest["interval"] is None
    assert manifest["outputs"].keys() == {"calibration.csv"}
    assert not (out / "selection.csv").exists()


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    """A chain from the tiny pipeline's phantom, simulate and sample."""
    tmp = tmp_path_factory.mktemp("sampled")
    ini = tmp / "tiny.ini"
    ini.write_text(TINY_INI, encoding="utf-8")
    for command in ("phantom", "simulate", "sample"):
        assert _run(command, ini, tmp / "out") == 0, command
    return ini, tmp / "out"


def _strict(token):
    raise ValueError(f"non-standard JSON token {token}")


def _copy_chain(src, tmp_path, raw=None):
    """An output directory that holds only the chain file of src, or raw
    bytes in its place."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "chain.bin").write_bytes(raw if raw is not None
                                    else (src / "chain.bin").read_bytes())
    return out


def test_diag_reports_the_rate_of_the_chain_it_hashed(tmp_path, sampled):
    # the chain file alone holds the acceptance rate, and diag's manifest
    # hashes that file: a number, strict JSON, the rate sample reported
    ini, src = sampled
    assert not (src / "chain.bin.json").exists()
    out = _copy_chain(src, tmp_path)
    assert _run("diag", ini, out) == 0
    manifest = json.loads((out / "diag_manifest.json").read_text(),
                          parse_constant=_strict)
    sample = json.loads((src / "sample_manifest.json").read_text())
    rate = manifest["acceptance_rate"]
    assert isinstance(rate, float) and 0.0 <= rate <= 1.0
    assert rate == sample["acceptance_rate"] == \
        _record(out / "chain.bin")["acceptance_rate"]
    digest = hashlib.sha256((out / "chain.bin").read_bytes()).hexdigest()
    assert manifest["inputs"] == {"chain.bin": digest}
    assert sample["outputs"]["chain.bin"] == digest
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "bad.json", {"x": value})


def test_diag_warns_of_a_chain_that_never_moved(tmp_path, sampled, caplog):
    # the tiny pipeline's chain moves; the same file with one state for
    # every kept row is a chain that accepted nothing
    ini, src = sampled
    chain = load_chain(src / "chain.bin")
    assert chain.samples.n_runs > 1
    out = _copy_chain(src, tmp_path)
    first = chain.samples.rows[:1]
    still = Chain(RunMatrix(first, np.zeros(chain.n_kept, dtype=int)),
                  chain.config, 0.0)
    _write_chain(still, tmp_path / "still.bin")
    with caplog.at_level(logging.WARNING, logger="poistomo.cli"):
        assert _run("diag", ini, out) == 0
        assert "never moved" not in caplog.text
        assert _run("diag", ini, out, "--chain",
                    str(tmp_path / "still.bin")) == 0
    assert f"chain never moved: 1 distinct state in {chain.n_kept} kept " \
        "samples" in caplog.text
    manifest = json.loads((out / "diag_manifest.json").read_text())
    assert manifest["distinct_states"] == 1


def test_sample_warns_of_a_chain_that_never_moved(tmp_path, caplog):
    # bench/tiny.ini at delta 2 accepts none of its kept steps at seed 1:
    # sample says so in diag's words, and still exits 0
    parser = configparser.ConfigParser()
    parser.read(BENCH_TINY)
    parser["sampler"]["delta"] = "2.0"
    ini = tmp_path / "still.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="poistomo.cli"):
        for command in ("phantom", "simulate", "sample"):
            assert cli.main([command, "--config", str(ini), "--output",
                             str(out), "--seed", "1"]) == 0, command
    manifest = json.loads((out / "sample_manifest.json").read_text())
    assert manifest["acceptance_rate"] == 0.0
    assert load_chain(out / "chain.bin").samples.n_runs == 1
    assert "chain never moved: 1 distinct state in " \
        f"{manifest['kept_samples']} kept samples" in caplog.text


def test_diag_refuses_a_version_2_chain_file(tmp_path, sampled, capsys):
    # the runs of the sampled chain in the layout before the record: a
    # 44-byte header holding part of the config, rows, lengths, no record
    ini, src = sampled
    chain = load_chain(src / "chain.bin")
    cfg, samples = chain.config, chain.samples
    lengths = np.bincount(samples.run)
    raw = (struct.pack("<4sIIIIIqBxxxd", b"CHN1", 2, chain.n_modes,
                       chain.n_kept, samples.n_runs, cfg.thinning, cfg.seed,
                       2, cfg.stepsize)
           + samples.rows.astype("<f8").tobytes()
           + lengths.astype("<i8").tobytes())
    out = _copy_chain(src, tmp_path, raw)
    capsys.readouterr()
    assert _run("diag", ini, out) == 2
    assert "chain file version 2" in capsys.readouterr().err
    assert not (out / "diag_manifest.json").exists()


def test_diag_refuses_a_chain_file_with_a_flipped_byte(tmp_path, sampled,
                                                       capsys):
    # one bit of the record flipped: the checksum no longer matches
    ini, src = sampled
    raw = bytearray((src / "chain.bin").read_bytes())
    raw[-2] ^= 1
    out = _copy_chain(src, tmp_path, bytes(raw))
    capsys.readouterr()
    assert _run("diag", ini, out) == 2
    assert "checksum mismatch" in capsys.readouterr().err
    assert not (out / "diag_manifest.json").exists()


def test_summarize_refuses_a_missing_truth_it_was_given(tmp_path, sampled):
    ini, src = sampled
    out = tmp_path / "out"
    assert _run("summarize", ini, out, "--chain", str(src / "chain.bin"),
                "--truth", str(tmp_path / "missing.csv")) == 3
    assert not (out / "summarize_manifest.json").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_summarize_refuses_a_non_finite_truth_before_writing(tmp_path,
                                                             sampled, value,
                                                             capsys):
    # a non-finite truth pixel is a usage error that names the file, found
    # before any CSV or summary.json is written
    ini, src = sampled
    out = _copy_chain(src, tmp_path)
    grid = Grid(8, 8)
    truth = read_field_csv(src / "phantom.csv", grid).values.ravel().copy()
    truth[5] = value
    bad = tmp_path / "truth.csv"
    write_field_csv(ScalarField(grid, truth), bad)
    capsys.readouterr()
    assert _run("summarize", ini, out, "--truth", str(bad)) == 2
    assert f"{bad}: a pixel is not finite" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["chain.bin"]


@pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
def test_summarize_refuses_a_bad_alpha_before_synthesizing(tmp_path, sampled,
                                                           monkeypatch,
                                                           capsys, alpha):
    # a bad --alpha is a usage error found before any state is synthesized
    # (a synthesis here would fail as a runtime error) or any file written
    ini, src = sampled
    out = _copy_chain(src, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("no state should be synthesized")

    monkeypatch.setattr(KLBasis, "synthesize_values", refuse)
    capsys.readouterr()
    assert _run("summarize", ini, out, "--alpha", alpha) == 2
    assert "alpha must lie in [0, 1)" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["chain.bin"]


def test_simulate_refuses_a_non_finite_phantom_before_writing(tmp_path,
                                                              tiny_ini,
                                                              capsys):
    # a NaN phantom pixel is bad input that names the file, not numpy's
    # Poisson error, and no counts file is written
    out = tmp_path / "out"
    assert _run("phantom", tiny_ini, out) == 0
    bad = tmp_path / "phantom.csv"
    values = np.loadtxt(out / "phantom.csv")
    values[5] = np.nan
    np.savetxt(bad, values)
    capsys.readouterr()
    assert _run("simulate", tiny_ini, out, "--phantom", str(bad)) == 2
    assert f"{bad}: a pixel is not finite" in capsys.readouterr().err
    assert not (out / "sinogram.bin").exists()
    assert not (out / "simulate_manifest.json").exists()


def test_write_json_leaves_no_partial_file(tmp_path):
    # the document is refused before the file is opened: no new file, and
    # an old one keeps its bytes
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        cli._write_json(path, {"a": 1.0, "b": math.nan})
    assert not path.exists()
    cli._write_json(path, {"a": 1.0})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        cli._write_json(path, {"a": 1.0, "b": math.inf})
    assert path.read_bytes() == before == b'{\n  "a": 1.0\n}\n'


def test_summarize_skips_psnr_without_the_default_truth(tmp_path, sampled):
    # <output>/phantom.csv is optional: without it there is no PSNR
    ini, src = sampled
    out = tmp_path / "out"
    assert _run("summarize", ini, out, "--chain",
                str(src / "chain.bin")) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "psnr_mean_vs_truth" not in summary
    assert _run("summarize", ini, src) == 0
    summary = json.loads((src / "summary.json").read_text())
    assert math.isfinite(summary["psnr_mean_vs_truth"])


def test_sample_refuses_a_sinogram_of_another_geometry(tmp_path, tiny_ini,
                                                       capsys):
    # counts simulated on 8 detector bins, sampled against 9
    out = tmp_path / "out"
    for command in ("phantom", "simulate"):
        assert _run(command, tiny_ini, out) == 0, command
    wide = tmp_path / "wide.ini"
    wide.write_text(TINY_INI.replace("n_det = 8", "n_det = 9"),
                    encoding="utf-8")
    capsys.readouterr()
    assert _run("sample", wide, out) == 2
    assert "does not match the operator's" in capsys.readouterr().err
    assert not (out / "sample_manifest.json").exists()


def test_sample_refuses_a_sinogram_with_ray_tables(tmp_path, sampled,
                                                   capsys):
    # the layout before the geometry alone fixed the rays: magic SIN1, the
    # header, uint32 angle and detector tables, then the counts
    ini, src = sampled
    table = np.loadtxt(src / "sinogram.csv", delimiter=",", skiprows=1,
                       dtype=np.int64)
    old = tmp_path / "old.bin"
    old.write_bytes(struct.pack("<4sIII", b"SIN1", 6, 8, len(table))
                    + table[:, 0].astype("<u4").tobytes()
                    + table[:, 1].astype("<u4").tobytes()
                    + table[:, 2].astype("<i8").tobytes())
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run("sample", ini, out, "--sinogram", str(old)) == 2
    assert f"{old}: sinogram layout SIN1" in capsys.readouterr().err
    assert not (out / "sample_manifest.json").exists()


def test_seed_range_is_what_the_chain_header_holds(tmp_path, tiny_ini,
                                                   capsys):
    # the largest int64 seeds every command; one past either end of
    # [0, 2**63) is a usage error at config parse, before any work
    def run(command, outdir, seed):
        return cli.main([command, "--config", str(tiny_ini), "--output",
                         str(outdir), "--seed", str(seed)])

    out = tmp_path / "out"
    for command in PIPELINE:
        assert run(command, out, 2 ** 63 - 1) == 0, command
    assert load_chain(out / "chain.bin").config.seed == 2 ** 63 - 1
    bad = tmp_path / "bad"
    for seed in (-1, 2 ** 63):
        for command in ("phantom", "sample"):
            capsys.readouterr()
            assert run(command, bad, seed) == 2, (command, seed)
            assert "seed must lie in [0, 2**63)" in capsys.readouterr().err
    assert not bad.exists()


def test_detect_screens_an_injected_blob(tmp_path, tiny_ini):
    out = tmp_path / "out"
    for command in ("phantom", "simulate", "sample", "summarize", "detect"):
        assert _run(command, tiny_ini, out) == 0, command
    plain = (out / "levels.csv").read_text()
    blob = ("--inject", "add_blob", "--center", "0.5,0.5", "--radius", "0.2")
    assert _run("detect", tiny_ini, out, *blob) == 0
    manifest = json.loads((out / "detect_manifest.json").read_text())
    assert manifest["injected"] == {"kind": "add_blob", "magnitude": 0.5,
                                    "center": [0.5, 0.5], "radius": 0.2}
    assert (out / "levels.csv").read_text() != plain
    # a blob without a radius, or a center that is not 'x,y', is refused
    (out / "detect_manifest.json").unlink()
    assert _run("detect", tiny_ini, out, *blob[:4]) == 2
    assert _run("detect", tiny_ini, out, "--inject", "add_blob",
                "--center", "0.5", "--radius", "0.2") == 2
    assert not (out / "detect_manifest.json").exists()


def test_detect_refuses_a_non_finite_image_as_usage(tmp_path, sampled,
                                                     capsys):
    # a nan magnitude and a nan pixel of the test image are bad input, not
    # a runtime failure
    ini, src = sampled
    out = _copy_chain(src, tmp_path)
    image = out / "phantom.csv"
    image.write_bytes((src / "phantom.csv").read_bytes())
    blob = ("--inject", "add_blob", "--center", "0.5,0.5", "--radius", "0.2")
    capsys.readouterr()
    assert _run("detect", ini, out, "--test-image", str(image), *blob,
                "--magnitude", "nan") == 2
    assert "magnitude must be finite" in capsys.readouterr().err
    values = np.loadtxt(image)
    values.flat[5] = np.nan
    np.savetxt(image, values)
    assert _run("detect", ini, out, "--test-image", str(image)) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "detect_manifest.json").exists()


def test_nan_tv_weight_in_a_config_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "nan.ini"
    ini.write_text("[model]\ntv_weight = nan\n", encoding="utf-8")
    assert _run("phantom", ini, tmp_path / "out") == 2
    assert "[model] tv_weight" in capsys.readouterr().err
    assert not (tmp_path / "out" / "phantom_manifest.json").exists()


def test_paper_preset_simulates_the_paper_geometry(tmp_path):
    out = tmp_path / "out"
    for command in ("phantom", "simulate"):
        assert cli.main([command, "--preset", "paper",
                         "--output", str(out)]) == 0, command
    geometry = json.loads((out / "geometry.json").read_text())
    assert (geometry["nx"], geometry["ny"]) == (128, 128)
    assert (geometry["rays_kept"], geometry["rays_dropped"],
            geometry["nnz"]) == (6924, 756, 867992)


# ---------------------------------------------------------------------------
# reports: each table is a header line and one row per item; floats read
# back exactly and integer columns hold integers


def _recording(seen, name, fn):
    def wrapper(*args, **kwargs):
        seen[name] = fn(*args, **kwargs)
        return seen[name]
    return wrapper


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The tiny pipeline run once, with an interval set to reach the
    selection, and the results that the CLI wrote its reports from."""
    tmp = tmp_path_factory.mktemp("reports")
    ini = tmp / "tiny.ini"
    ini.write_text(TINY_INI, encoding="utf-8")
    out = tmp / "out"
    seen = {}
    search = cli.admissible_search

    def admits(*args, **kwargs):
        return dataclasses.replace(search(*args, **kwargs),
                                   interval=(0.5, 1.5))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "admissible_search",
                   _recording(seen, "admissible_search", admits))
        for name in ("select_lambda", "solve_map"):
            mp.setattr(cli, name, _recording(seen, name, getattr(cli, name)))
        for command in PIPELINE:
            assert _run(command, ini, out) == 0, command
    return out, seen


def _table(path):
    header, *lines = path.read_text(encoding="ascii").splitlines()
    return header, [line.split(",") for line in lines]


def _is_int(text):
    return text.lstrip("-").isdigit()


def test_calibrate_reports_every_weight_and_iterate(reports):
    out, seen = reports
    header, rows = _table(out / "calibration.csv")
    assert header == "tv_weight,p_b,stderr,chain_steps,acceptance,beta"
    result = seen["admissible_search"]
    assert len(rows) == len(result.rows) == 2
    for row, r in zip(rows, result.rows):
        assert _is_int(row[3]) and int(row[3]) == r.chain_steps
        assert [float(row[i]) for i in (0, 1, 2, 4, 5)] == \
            [r.tv_weight, r.p, r.stderr, r.acceptance, r.beta]
    header, rows = _table(out / "selection.csv")
    assert header == "iteration,tv_weight,gradient"
    assert all(_is_int(row[0]) for row in rows)
    assert [(int(k), float(w), float(g)) for k, w, g in rows] == \
        list(seen["select_lambda"].trace)


def test_sample_reports_the_map_residuals(reports):
    out, seen = reports
    header, rows = _table(out / "map_residuals.csv")
    assert header == "iteration,primal,dual,objective"
    res = seen["solve_map"]
    assert [row[0] for row in rows] == \
        [str(i) for i in range(1, res.primal.size + 1)]
    for i, row in enumerate(rows):
        assert [float(x) for x in row[1:]] == \
            [res.primal[i], res.dual[i], res.objective[i]]


def test_pgm_header_and_sixteen_bit(tmp_path):
    g = Grid(2, 3)
    f = ScalarField(g, [[0.0, 0.5, 1.0], [0.25, 0.75, 1.0]])
    path = tmp_path / "t.pgm"
    cli._write_pgm(f, path, vmax=1.0)
    raw = path.read_bytes()
    # width (ny) before height (nx): file rows run along axis 0
    header = b"P5\n3 2\n65535\n"
    assert raw.startswith(header)
    samples = np.frombuffer(raw[len(header):], dtype=">u2")
    assert samples.tolist() == [0, round(0.5 * 65535), 65535,
                                round(0.25 * 65535), round(0.75 * 65535),
                                65535]


def test_pgm_images_hold_their_csv_values(reports):
    # each image scaled to its own maximum, the levels to the fixed [0, 1]
    out, _ = reports
    header = b"P5\n8 8\n65535\n"
    for name, vmax in (("phantom", None), ("mean", None), ("levels", 1.0)):
        values = np.loadtxt(out / f"{name}.csv")
        scale = values.max() if vmax is None else vmax
        expected = np.round(np.clip(values / scale, 0.0, 1.0) * 65535.0)
        raw = (out / f"{name}.pgm").read_bytes()
        assert raw.startswith(header), name
        samples = np.frombuffer(raw[len(header):], dtype=">u2")
        assert np.array_equal(samples, expected), name


def test_diag_reports_one_row_per_lag_and_per_coefficient(reports):
    out, _ = reports
    chain = load_chain(out / "chain.bin")
    header, rows = _table(out / "acf.csv")
    assert header == "lag," + ",".join(f"coeff{j}" for j in range(8))
    acf = acf_matrix(chain.samples[:, :8], max_lag=200)
    assert [row[0] for row in rows] == [str(k) for k in range(len(acf))]
    assert np.array_equal([[float(x) for x in row[1:]] for row in rows], acf,
                          equal_nan=True)
    header, rows = _table(out / "ess.csv")
    assert header == "series,ess"
    assert [row[0] for row in rows] == [f"coeff{j}" for j in range(24)]
    assert np.array_equal([float(row[1]) for row in rows],
                          ess_matrix(chain.samples), equal_nan=True)
