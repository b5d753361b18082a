import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from cohscat import _text, cli, hom, pulsed
from cohscat import emitter as em
from cohscat._svg import render_lines
from cohscat.scenario import Scenario, SchemaError
from conftest import assert_same_text, render_lines_per_point


def run_cli(args):
    return cli.main(args)


def _portable_manifest(out: Path) -> dict:
    """An output directory's manifest without the fields that say where and
    with how many threads it ran."""
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["diagnostics"], manifest["scenario"]["output_dir"]
    return manifest


def test_scenario_defaults_and_strictness():
    sc = Scenario.from_dict({})
    params = sc.emitter.resolve()
    assert params.linewidth_uev() == pytest.approx(6.14, abs=1e-9)
    assert sc.seed == 12345
    with pytest.raises(SchemaError):
        Scenario.from_dict({"emitter": {"mystery": 1.0}})
    with pytest.raises(SchemaError):
        Scenario.from_dict({"mystery_block": {}})
    with pytest.raises(SchemaError):
        Scenario.from_dict({"emitter": {"t1_ns": "fast"}})
    with pytest.raises(SchemaError):
        Scenario.from_dict({"seed": -3})
    with pytest.raises(SchemaError):
        Scenario.from_dict({"emitter": {"t1_ns": 1.0}})  # t2 missing
    # JSON's NaN and Infinity literals, and integers beyond the float range
    for text in ('{"emitter": {"linewidth_uev": NaN}}', '{"pulse_train": {"pair_period_ns": Infinity}}',
                 '{"drive": {"rabi_rad_ns": -Infinity}}', '{"emitter": {"linewidth_uev": 1%s}}' % ("0" * 400)):
        with pytest.raises(SchemaError, match="expected float"):
            Scenario.from_dict(json.loads(text))
    for block in (None, [], 3.0):
        with pytest.raises(SchemaError, match="emitter: expected an object"):
            Scenario.from_dict({"emitter": block})
    for top in ([], "emitter", None):
        with pytest.raises(SchemaError, match="scenario: expected an object"):
            Scenario.from_dict(top)


def test_drive_conventions():
    sc = Scenario.from_dict({"drive": {"rabi_ghz": 0.83}})
    conv = sc.drive.conventions()
    assert conv["angular_rad_ns"] == pytest.approx(2.0 * math.pi * 0.83)
    assert conv["direct_rad_ns"] == pytest.approx(0.83)
    assert sc.drive.resolve() == pytest.approx(2.0 * math.pi * 0.83)
    sc2 = Scenario.from_dict({"drive": {"rabi_rad_ns": 1.5}})
    assert sc2.drive.resolve() == 1.5


def test_fig2c_columns_and_max(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["fig", "fig2c", "--out", str(out)]) == 0
    lines = (out / "fig2c.csv").read_text().splitlines()
    assert lines[0] == "rabi_ghz,i_total_norm,rrs_frac_ratio1.0,rrs_frac_ratio0.3"
    data = np.loadtxt(out / "fig2c.csv", delimiter=",", skiprows=1)
    assert data[:, 3].max() == pytest.approx(0.30, abs=1e-12)
    assert data[:, 2].max() == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact"] == "cohscat"
    assert manifest["command"] == "fig fig2c"
    assert manifest["scenario"]["seed"] == 12345
    assert (out / "fig2c.svg").exists()


def test_steady_prints_both_conventions(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["sim", "steady", "--rabi-ghz", "0.83", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "angular_rad_ns" in printed and "direct_rad_ns" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["results"]) == {"angular_rad_ns", "direct_rad_ns"}
    lines = (out / "steady.csv").read_text().splitlines()
    assert lines[0] == "convention,omega_rad_ns,s,rho_ee,rrs_fraction"
    assert len(lines) == 3


def test_g2_csv_columns(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sim", "g2", "--tau-max", "10", "--out", str(out)]) == 0
    lines = (out / "g2.csv").read_text().splitlines()
    assert lines[0] == "tau_ns,g2"


def test_g2_zero_is_taken_at_zero_delay(tmp_path):
    # an even grid holds no tau = 0 point; the antibunched source still reads 0
    out = tmp_path / "o"
    assert run_cli(["sim", "g2", "--points", "4", "--out", str(out)]) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert abs(results["g2_zero"]) < 1e-12


def test_unresolved_spectrum_grid_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["sim", "spectrum", "--points", "3", "--out", str(out)]) == 3
    assert "does not resolve" in capsys.readouterr().err
    assert not out.exists()


def test_stream_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run_cli(
            ["sim", "stream", "--pairs", "5000", "--seed", "7", "--threads", "1", "--out", str(out)]
        )
        assert code == 0
    assert (a / "stream.csv").read_bytes() == (b / "stream.csv").read_bytes()
    assert _portable_manifest(a) == _portable_manifest(b)


def test_manifest_roundtrip(tmp_path):
    # fig1d's manifest carries the solved gating.laser_leakage explicitly
    for command, flags, csv in ((["sim", "stream"], ["--pairs", "2000", "--seed", "3"], "stream.csv"),
                                (["fig", "fig1d"], [], "fig1d.csv")):
        a, b = tmp_path / csv / "a", tmp_path / csv / "b"
        assert run_cli([*command, *flags, "--threads", "1", "--out", str(a)]) == 0
        assert json.loads((a / "manifest.json").read_text())["scenario"]["gating"]["laser_leakage"] is not None
        assert run_cli([*command, "--config", str(a / "manifest.json"), "--threads", "1", "--out", str(b)]) == 0
        assert (a / csv).read_bytes() == (b / csv).read_bytes()
        results = [json.loads((d / "manifest.json").read_text())["results"] for d in (a, b)]
        assert results[0] == results[1]


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # manifests written before cavity_q was removed still carry the key
    for key in ("bogus", "cavity_q"):
        bad.write_text(json.dumps({"emitter": {key: 8900}}))
        assert run_cli(["fig", "fig2c", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err


@pytest.mark.parametrize("config, out", [("absent.json", "o"), (".", "o"), (None, "file"), (None, "file/o")],
                         ids=["missing-config", "config-is-a-directory", "out-is-a-file", "out-under-a-file"])
def test_unusable_config_or_out_exit_code(tmp_path, capsys, monkeypatch, config, out):
    # each fails before the runner starts: no Monte Carlo stream is simulated
    monkeypatch.setattr(pulsed, "simulate_stream", lambda *args, **kwargs: pytest.fail("the runner started"))
    (tmp_path / "file").write_text("kept\n")
    args = ["fig", "fig3b", "--out", str(tmp_path / out)]
    if config is not None:
        args += ["--config", str(tmp_path / config)]
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept\n"


def test_numerical_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text('{"drive": {"rabi_ghz": 0.0}}')
    out = tmp_path / "o"
    assert run_cli(["sim", "g2", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_float_overflow_is_a_numerical_failure(tmp_path, capsys):
    # a finite drive whose square overflows: OverflowError, not a traceback
    out = tmp_path / "o"
    assert run_cli(["sim", "steady", "--rabi-ghz", "1e200", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["fig", "fig3d"], ["fig", "fig3e"], ["sim", "noon"]],
                         ids=["fig3d", "fig3e", "noon"])
def test_failed_fringe_fit_leaves_no_output(tmp_path, capsys, command):
    # Three phase samples pass the load-time grid checks but not the fit's
    # sampling check, which runs after the fringes are computed.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"circuit": {"n_phi": 3}}))
    out = tmp_path / "o"
    assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 3
    assert "need at least 8 samples per fringe period" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fig, config, message",
    [("fig3d", {"circuit": {"single_visibility": 0}}, "target visibility must lie in (0, 1]"),
     ("fig3d", {"circuit": {"single_visibility": 1e-20}}, "coupler reflectivity must lie in (0, 1)"),
     ("fig3e", {"source_model": {"overlap": 2}}, "overlap must lie in [0, 1]")],
)
def test_out_of_range_circuit_and_source_values_are_schema_errors(tmp_path, capsys, fig, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(["fig", fig, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [(["sim", "stream"], {"pulse_train": {"pulse_area_pi": -1}}, "pulse_area must be >= 0"),
     (["sim", "stream"], {"pulse_train": {"pulse_fwhm_ns": 3}}, "pulse windows overlap"),
     # the second pulse's window would run into the next cycle's first
     (["sim", "stream"], {"pulse_train": {"pulse_fwhm_ns": 0.4, "pair_period_ns": 2.5}}, "pulse windows overlap"),
     (["sim", "stream"], {"pulse_train": {"shape": "triangle"}}, "unknown pulse shape"),
     (["fig", "fig2d"], {"hom": {"splitter_ratio": 2}}, "splitter_ratio must lie in (0, 1)"),
     (["fig", "fig2d"], {"hom": {"delay_ns": -1}}, "delay must be > 0"),
     (["fig", "fig2d"], {"timing": {"fwhm_ns": -0.1}}, "timing fwhm must be >= 0"),
     (["fig", "fig2b"], {"spectral": {"instrument_fwhm_uev": -1}}, "spectral widths must be >= 0"),
     (["fig", "fig3e"], {"circuit": {"n_phi": 0}}, "phi grid must hold at least two points"),
     (["fig", "fig3e"], {"circuit": {"phi_span_rad": 0}}, "phi grid must cover at least 2*pi"),
     # n_phi phase points are allocated while the scenario loads
     (["fig", "fig3d"], {"circuit": {"n_phi": 2 ** 63}}, "n_phi must be at most"),
     (["fig", "fig3d"], {"circuit": {"n_phi": 10 ** 9}}, "n_phi must be at most"),
     *[(command, config, message) for command in (["fig", "fig1d"], ["fig", "fig2a"], ["sim", "steady"])
       for config, message in (({"gating": {"contrast": 0}}, "contrast must be > 0"),
                               ({"gating": {"rabi_per_sqrt_power": 0}}, "rabi_per_sqrt_power must be > 0"),
                               ({"emitter": {"coherence_ratio": 0}}, "coherence_ratio must lie in (0, 1]"))],
     (["fig", "fig2c"], {"emitter": {"linewidth_uev": 10 ** 400}}, "linewidth_uev: expected float"),
     (["fig", "fig1d"], {"gating": {"charge_occupation": 2}}, "charge_occupation must lie in [0, 1]"),
     (["fig", "fig1d"], {"emitter": {"linewidth_uev": -1}}, "linewidth_uev must be > 0"),
     (["fig", "fig1d"], {"gating": {"collection_efficiency": 0}}, "detected emission must be > 0"),
     # the detected emission at the knee overflows; sim steady never uses gating
     (["sim", "steady"], {"gating": {"collection_efficiency": 1e300}}, "solved laser leakage must be finite"),
     # a given leakage: zero is an infinite contrast, and the counts at the knee must be finite
     *[(command, config, message) for command in (["fig", "fig1d"], ["sim", "steady"])
       for config, message in (({"gating": {"laser_leakage": 0.0}}, "laser_leakage must be > 0"),
                               ({"gating": {"collection_efficiency": 1e300, "laser_leakage": 1.0}},
                                "detected emission at the knee must be finite"),
                               ({"gating": {"laser_leakage": 1e308}}, "leaked laser at the knee must be finite"))],
     (["fig", "fig1d"], {"emitter": {"linewidth_uev": 1e300}}, "saturation scale 1/(t1*t2) must be finite"),
     (["fig", "fig1d"], {"emitter": {"detuning_rad_ns": 1e300}}, "detuning factor (detuning*t2)^2 must be finite"),
     (["sim", "stream"], {"pulse_train": {"pulse_area_pi": math.nan}}, "pulse_area_pi: expected float"),
     *[(command, config, message) for command in (["fig", "fig1d"], ["fig", "fig2a"])
       for config, message in (({"drive": {"rabi_ghz": -1}}, "rabi must be >= 0"),
                               ({"blinking": {"timescale_ns": 0}}, "blinking timescale must be > 0"))]],
    ids=["pulse-area", "pulse-fwhm", "pulse-cycle", "pulse-shape", "splitter-ratio", "hom-delay",
         "timing-fwhm", "instrument-fwhm", "n-phi", "phi-span", "n-phi-int64-overflow", "n-phi-huge",
         *[f"{command}-{case}" for command in ("fig1d", "fig2a", "steady")
           for case in ("contrast", "knee-scale", "coherence-ratio")],
         "huge-linewidth", "occupation", "negative-linewidth", "zero-efficiency", "steady-overflowing-leakage",
         *[f"{command}-{case}" for command in ("fig1d", "steady")
           for case in ("given-zero-leakage", "given-overflowing-emission", "given-overflowing-laser")],
         "extreme-linewidth", "extreme-detuning", "nan-area",
         *[f"{command}-{case}" for command in ("fig1d", "fig2a") for case in ("rabi", "blinking")]],
)
def test_out_of_range_block_values_are_schema_errors(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    block = next(iter(config))
    assert "scenario error" in err and message in err and block in err
    assert not out.exists()


def test_fig1d_counts_that_overflow_above_the_knee_fail_naming_gating(tmp_path, capsys):
    # the leaked laser is finite at the knee (1e308 counts/s) and overflows at 5x its power
    params = Scenario().emitter.resolve()
    leak = 1e308 / em.GatingModel().knee_power(params)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gating": {"laser_leakage": leak}}))
    assert run_cli(["sim", "steady", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert run_cli(["fig", "fig1d", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 3
    assert "numerical failure: gating: detected counts overflow" in capsys.readouterr().err


def test_stream_with_re_excitation_inside_the_window_passes_the_band(tmp_path):
    # 100 pi in 0.5 ns at t1 = 0.1 ns re-excites the emitter about six times
    # per pulse: more than 1 + fwhm / t1 allows, as the engine drives the
    # whole window (4.25 fwhm), within 1 + window / t1.
    config = {"emitter": {"t1_ns": 0.1, "t2_ns": 0.2}, "pulse_train": {"pulse_area_pi": 100.0, "pulse_fwhm_ns": 0.5}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(["sim", "stream", "--pairs", "2000", "--threads", "1", "--config", str(cfg), "--out", str(out)]) == 0
    pair, pulse = np.loadtxt(out / "stream.csv", delimiter=",", skiprows=1, usecols=(0, 1), dtype=np.int64).T
    counts = np.bincount(2 * pair + pulse, minlength=4000)
    [(_, expected)] = pulsed.rabi_curve(Scenario.from_json(cfg).emitter.resolve(), [100.0 * math.pi], 0.5)
    assert expected > 1.0 + 0.5 / 0.1 + 0.05
    assert abs(counts.mean() - expected) < 5.0 * counts.std() / math.sqrt(len(counts))


def test_flag_overrides_pass_the_load_time_check(tmp_path, capsys):
    # --rabi-ghz rebuilds the scenario with dataclasses.replace, which
    # resolves every block again
    out = tmp_path / "o"
    assert run_cli(["sim", "steady", "--rabi-ghz", "1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "drive: rabi must be finite" in err
    assert not out.exists()


def test_detuned_steady_state_is_reported_consistently():
    sc = Scenario.from_dict({"emitter": {"detuning_rad_ns": 3.0}})
    steady = cli._sim_steady(sc, None, 1).results
    for row in steady.values():
        s = row["s"]
        assert row["rho_ee"] == pytest.approx(s / (2.0 * (1.0 + s)), rel=0, abs=1e-12)
    fig = cli._fig2c(sc, None, 1)
    params = sc.emitter.resolve().with_coherence_ratio(1.0)
    freqs, i_total = fig.columns[0], fig.columns[1]
    rho = np.array([em.steady_state(params, 2.0 * math.pi * f).rho_ee() for f in freqs])
    assert np.max(np.abs(i_total - 2.0 * rho)) < 1e-12


def test_unknown_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sim", "g2", "--no-such-flag"])
    assert exc.value.code == 2


def test_fig3d_reports_unit_visibility(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["fig", "fig3d", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "visibility 1.0000" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["visibility"] == pytest.approx(1.0, abs=1e-6)
    lines = (out / "fig3d.csv").read_text().splitlines()
    assert lines[0] == "phi_rad,p_out0,p_out1,p_coincidence"


def test_fig3e_frequency_ratio(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["fig", "fig3e", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["frequency_ratio"] == pytest.approx(2.0, abs=0.02)
    assert manifest["results"]["coincidence_min"] > 0.0


def test_noon_export_and_circuit_solver(tmp_path):
    out = tmp_path / "o"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"circuit": {"single_visibility": 0.98}}))
    assert run_cli(["sim", "noon", "--input", "single", "--config", str(cfg),
                    "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["visibility"] == pytest.approx(0.98, abs=0.005)
    assert manifest["results"]["r1"] == manifest["results"]["r2"]


def test_sim_hom_cw_builds_the_traces_once(tmp_path, monkeypatch):
    calls = []
    real = hom.hom_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hom, "hom_pair", counting)
    monkeypatch.setattr(cli, "hom_pair", counting)
    assert run_cli(["sim", "hom-cw", "--points", "101", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_fig2e_builds_each_hom_pair_once(tmp_path, monkeypatch):
    # four coherence ratios, four pairs: the ratio-1.0 pair that sets the
    # IRF is also the last trace
    calls = []
    real = hom.hom_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hom, "hom_pair", counting)
    monkeypatch.setattr(cli, "hom_pair", counting)
    assert run_cli(["fig", "fig2e", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 4


def test_pulsed_commands_call_the_library_through_module_globals(tmp_path, monkeypatch):
    # Wrappers bound over pulsed.simulate_stream and pulsed.pulsed_hom (as
    # the benchmark's probe binds them) must see every call the runners make.
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pulsed, "simulate_stream", counting("stream", pulsed.simulate_stream))
    monkeypatch.setattr(pulsed, "pulsed_hom", counting("hom", pulsed.pulsed_hom))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulse_train": {"n_pairs": 2000}}))
    cases = [
        (["fig", "fig3b", "--config", str(cfg)], ["stream"], {"fig3b.csv", "fig3b.svg"}),
        (["fig", "fig3c", "--config", str(cfg)], ["stream", "hom"], {"fig3c.csv", "fig3c.svg"}),
        (["sim", "hbt", "--pairs", "2000"], ["stream"], {"hbt.csv"}),
        (["sim", "hom-pulsed", "--pairs", "2000"], ["stream", "hom"], {"hom_pulsed.csv"}),
        (["sim", "stream", "--pairs", "2000"], ["stream"], {"stream.csv"}),
    ]
    for command, expected_calls, files in cases:
        calls.clear()
        out = tmp_path / "_".join(command[:2])
        assert run_cli(command + ["--threads", "1", "--out", str(out)]) == 0, command
        assert calls == expected_calls, command
        assert {p.name for p in out.iterdir()} == files | {"manifest.json"}, command


def test_top_seed_runs_the_pulsed_interference_commands(tmp_path):
    # The schema accepts seeds up to 2^64 - 1; the interference routing
    # once keyed itself with seed + 1 and overflowed there.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulse_train": {"n_pairs": 2000}}))
    for command in (["fig", "fig3c"], ["sim", "hom-pulsed"]):
        out = tmp_path / command[1]
        args = ["--config", str(cfg), "--seed", str(2 ** 64 - 1), "--threads", "1", "--out", str(out)]
        assert run_cli(command + args) == 0, command
        assert json.loads((out / "manifest.json").read_text())["scenario"]["seed"] == 2 ** 64 - 1


def test_every_figure_svg_parses(tmp_path):
    for fig in cli.FIGURE_IDS:
        out = tmp_path / fig
        assert run_cli(["fig", fig, "--threads", "1", "--out", str(out)]) == 0
        root = ET.parse(out / f"{fig}.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg", fig
        marks = root.findall("{http://www.w3.org/2000/svg}polyline") + root.findall(
            "{http://www.w3.org/2000/svg}circle"
        )
        assert marks, fig


def test_results_do_not_depend_on_the_thread_count(tmp_path):
    # 70000 pairs make two 2^16-pair chunks, so two threads really run
    outputs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        assert run_cli(["sim", "stream", "--pairs", "70000", "--threads", str(threads), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {"threads": threads}
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        outputs.append((files, _portable_manifest(out)))
    assert outputs[0] == outputs[1]


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("COHSCAT_THREADS", "2")
    out = tmp_path / "o"
    assert run_cli(["sim", "stream", "--pairs", "1000", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["diagnostics"] == {"threads": 2}
    monkeypatch.setenv("COHSCAT_THREADS", "nope")
    assert run_cli(["sim", "stream", "--pairs", "10", "--out", str(out)]) == 2


@pytest.mark.parametrize("flag,value", [("--pairs", "0"), ("--pairs", "-3"),
                                        ("--threads", "0"), ("--threads", "-5")])
def test_nonpositive_count_flags_exit_code(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sim", "stream", flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_rejects_non_finite_results(tmp_path, monkeypatch):
    def runner(scenario, args, threads):
        return cli._Output("nan.csv", "x", [[1.0]], {"mean_per_pulse": float("nan")})

    monkeypatch.setitem(cli._FIGURES, "nan", runner)
    out = tmp_path / "o"
    with pytest.raises(ValueError):
        cli.run("fig", "nan", Scenario(output_dir=str(out)), None, 1)
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_threads_env_exit_code(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("COHSCAT_THREADS", value)
    out = tmp_path / "o"
    assert run_cli(["sim", "stream", "--pairs", "10", "--out", str(out)]) == 2
    assert "COHSCAT_THREADS must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_pairs", [0, -4])
def test_nonpositive_pairs_in_config_is_schema_error(tmp_path, capsys, n_pairs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulse_train": {"n_pairs": n_pairs}}))
    out = tmp_path / "o"
    assert run_cli(["sim", "stream", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "n_pairs must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("sim", ["g2", "g1", "spectrum", "hom-cw", "rabi"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_points_flag_exit_code(tmp_path, capsys, sim, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sim", sim, "--points", value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--fwhm-ns", "0"), ("--fwhm-ns", "-0.1"), ("--fwhm-ns", "inf"), ("--fwhm-ns", "nan"),
     ("--max-area-pi", "-1"), ("--max-area-pi", "nan"), ("--max-area-pi", "inf")],
)
def test_rabi_float_flags_exit_code(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sim", "rabi", flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "sim, flag, value",
    [("g2", "--tau-max", "-1"), ("g1", "--tau-max", "0"), ("g2", "--tau-max", "nan"),
     ("spectrum", "--span-uev", "0"), ("hom-cw", "--tau-max", "inf"), ("steady", "--rabi-ghz", "-1")],
)
def test_float_flags_exit_code(tmp_path, capsys, sim, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sim", sim, flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _rows_by_value(columns):
    # Value-by-value formatting, the row path ``write_csv`` used before it
    # formatted whole columns.
    def fmt(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return str(int(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.12g}"

    columns = [np.asarray(c) for c in columns]
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in zip(*columns))


def _float_edges():
    """Values where the 12-digit text is decided by the last bits: decade
    edges, 12th-digit rounding ties and their neighbours, signed zeros,
    subnormals and non-finite values."""
    powers = 10.0 ** np.arange(-6, 14)
    edges = np.array([9.99999999999995e-5, 99999999999.95, 999999999999.5, 2.5e-5, 5e-5])
    mantissas = np.random.default_rng(7).integers(10**11, 10**12, 500) + 0.5
    ties = np.concatenate([mantissas * 10.0**k for k in range(-16, 1)])
    near = np.concatenate([powers, powers * (1 - 5e-13), powers * (1 - 4.9e-13), edges, ties])
    near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, np.inf, -np.inf, np.nan]
    return np.concatenate([near, -near, special])


def test_write_csv_matches_value_by_value_formatting(tmp_path, rng):
    edges = _float_edges()
    floats = np.concatenate([
        rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200),
        [0.0, -0.0, 1.0, 0.1, 1e16, 123456789012345.0, np.nan, np.inf, -np.inf],
        edges,
    ])
    n = len(floats)
    info = np.iinfo(np.int64)
    with np.errstate(over="ignore"):
        narrowed = floats.astype(np.float32)  # overflows to inf and underflows to 0 at the edges
    columns = [
        floats,
        list(floats),  # Python floats
        (rng.normal(size=n) * 1e3).astype(np.float32),
        narrowed,
        rng.integers(-10**12, 10**12, size=n),
        np.resize([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max], n),
        np.resize(np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64), n),
        [int(i) for i in range(n)],
        rng.random(n) < 0.5,
        [f"label{i}" for i in range(n)],
    ]
    path = tmp_path / "t.csv"
    cli.write_csv(path, "a,b,c,d,e,f,g,h,i,j", columns)
    assert_same_text(path.read_text(), "a,b,c,d,e,f,g,h,i,j\n" + _rows_by_value(columns))


def test_csv_floats_match_python_formatting_per_decade(rng):
    # 1e5 values in each decade whose text the column-wise path writes, and
    # 1e3 in every other decade from 1e-300 to 1e300, where each value is
    # written by Python's formatter.
    window = range(-5, 13)
    for exponent in range(-300, 301):
        count = 10**5 if exponent in window else 10**3
        values = rng.uniform(1.0, 10.0, count) * 10.0**exponent
        values[::2] *= -1.0
        expected = "\n".join(map("{:.12g}".format, values.tolist())) + "\n"
        assert_same_text("".join(_text.csv_lines([values])), expected)


def test_csv_empty_columns_write_the_header_alone(tmp_path):
    cli.write_csv(tmp_path / "e.csv", "a,b", [np.array([]), []])
    assert (tmp_path / "e.csv").read_text() == "a,b\n"


@pytest.mark.parametrize("fig", sorted(cli._FIGURES))
def test_figure_outputs_match_value_by_value_oracles(tmp_path, fig):
    # The real columns of every figure, written by the column-wise CSV and
    # SVG paths and by the per-value oracles. The pulsed figures run a
    # shorter train.
    scenario = Scenario()
    scenario = dataclasses.replace(
        scenario, pulse_train=dataclasses.replace(scenario.pulse_train, n_pairs=5000)
    )
    out = cli._FIGURES[fig](scenario, None, 1)
    cli.write_csv(tmp_path / "new.csv", out.header, out.columns)
    assert_same_text((tmp_path / "new.csv").read_text(), out.header + "\n" + _rows_by_value(out.columns))
    render_lines(tmp_path / "new.svg", *out.plot)
    render_lines_per_point(tmp_path / "oracle.svg", *out.plot)
    assert_same_text((tmp_path / "new.svg").read_text(), (tmp_path / "oracle.svg").read_text())


def _help_with_default_formatter(argv):
    """argv's --help text from a parser whose help formatter is argparse's
    own, sized to the terminal when it is made."""
    parser = cli._build_parser(argv)
    for name in argv[:-1]:
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    parser.formatter_class = argparse.HelpFormatter
    return parser.format_help()


@pytest.mark.parametrize("argv", [["fig", "--help"], ["sim", "g2", "--help"]], ids=["fig", "sim-g2"])
def test_help_text_matches_argparse_default(monkeypatch, capsys, argv):
    lines = []
    for columns in ("50", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text == _help_with_default_formatter(argv)
        lines.append(text.count("\n"))
    assert lines[0] > lines[1]  # the width reached the formatter


@pytest.mark.parametrize("argv, listing",
                         [(["--help"], "{fig,sim}"), (["sim", "--help"], "{" + ",".join(cli._SIMS) + "}")],
                         ids=["top", "sim"])
def test_help_lists_every_command(capsys, argv, listing):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 0
    assert listing in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["sim"], ["sim", "bogus"], ["sim", "hbt", "--input", "dual"],
                                  ["fig", "fig3b", "--pairs", "10"]],
                         ids=["no-sim", "unknown-sim", "other-sims-flag", "sim-flag-on-fig"])
def test_usage_errors_exit_code(capsys, argv):
    # the parser holds only the requested command's flags
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    if argv[1:] == ["bogus"]:
        assert all(repr(name) in err for name in cli._SIMS)


def test_parser_measures_the_terminal_once(monkeypatch):
    calls = []
    measure = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli._build_parser(["sim"])  # every command
    assert len(calls) == 1


def test_no_scipy_integrate_on_the_rabi_path(tmp_path):
    code = (
        "import sys\n"
        "import cohscat\n"
        "assert 'scipy.integrate' not in sys.modules, 'import cohscat'\n"
        "from cohscat import cli\n"
        f"assert cli.main(['sim', 'rabi', '--threads', '1', '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'sim rabi'\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "rabi.csv").exists()


def test_no_scipy_on_any_command_path(tmp_path):
    code = (
        "import sys\n"
        "from cohscat import cli\n"
        "def run(args):\n"
        f"    out = {str(tmp_path)!r} + '/' + '_'.join(args)\n"
        "    assert cli.main([*args, '--threads', '1', '--out', out]) == 0, args\n"
        "for fig in cli.FIGURE_IDS:\n"
        "    run(['fig', fig])\n"
        "for sim in cli._SIMS:\n"
        "    run(['sim', sim] + (['--pairs', '2000'] if sim in ('stream', 'hbt', 'hom-pulsed') else []))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
        "assert 'numpy.fft' not in sys.modules, 'numpy.fft'\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig_fig3e" / "fig3e.csv").exists()


def test_only_the_pulsed_commands_load_the_monte_carlo_engine(tmp_path):
    code = (
        "import sys\n"
        "from cohscat import cli\n"
        "pulsed = {'fig3b', 'fig3c', 'rabi', 'stream', 'hbt', 'hom-pulsed'}\n"
        "for args in [['fig', fig] for fig in cli.FIGURE_IDS] + [['sim', sim] for sim in cli._SIMS]:\n"
        "    if args[1] not in pulsed:\n"
        f"        out = {str(tmp_path)!r} + '/' + '_'.join(args)\n"
        "        assert cli.main([*args, '--threads', '1', '--out', out]) == 0, args\n"
        "loaded = [m for m in ('cohscat.pulsed', 'numpy.random', 'concurrent.futures') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sim_noon" / "noon.csv").exists()


def test_runtime_dependencies_name_no_scipy():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert not [d for d in project["dependencies"] if d.lower().startswith("scipy")]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
