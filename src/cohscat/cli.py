"""Command-line harness: reproduces the bundled figure scenarios and exposes
the individual simulations.

Every run resolves one Scenario (config file plus flag overrides), writes
CSV data files (and an SVG rendering for figure runs) under the output
directory, and echoes the fully resolved scenario into manifest.json so the
manifest can be re-used as a config. Exit codes: 0 success, 2 schema/flag
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import locale  # noqa: F401 -- argparse's gettext loads it lazily; load it with the module, not in a run
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import emitter as em
from ._svg import render_lines
from .correlations import apply_blinking, convolve_timing, g1, g2
from .emitter import IntegrationError
from .fock import fit_fringe, mzi_fringes
from .hom import hom_pair, solve_timing_for_visibility, visibility, visibility_family
from .pulsed import (
    coincidence_histogram,
    export_stream,
    hbt_analyze,
    pulsed_hom,
    rabi_curve,
    simulate_stream,
)
from .scenario import Scenario, SchemaError
from .spectrum import GridError, FitConvergenceError, emission_spectrum, lorentzian

def _format_column(column) -> list[str]:
    column = np.asarray(column)
    if column.dtype.kind in "biu":
        return [str(int(v)) for v in column.tolist()]
    if column.dtype.kind == "U":
        return column.tolist()
    return list(map("{:.12g}".format, column.tolist()))


def write_csv(path, header: str, columns) -> None:
    """Header plus one row per entry; integers and booleans as integers,
    strings as given, everything else as floats to 12 significant digits."""
    rows = zip(*(_format_column(c) for c in columns))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header, *map(",".join, rows)]) + "\n")


def write_manifest(outdir: Path, command: str, scenario: Scenario, results: dict) -> None:
    payload = {
        "artifact": "cohscat",
        "version": __version__,
        "command": command,
        "scenario": scenario.resolved_dict(),
        "results": results,
    }
    # Serialized before the file opens, so a NaN or infinity (a ValueError)
    # leaves no truncated manifest behind.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        fh.write(text + "\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _thread_count(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("COHSCAT_THREADS")
    if env:
        try:
            return _positive_int(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise SchemaError(f"COHSCAT_THREADS must be a positive integer, got {env!r}") from exc
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# figure runners


def _fig1d(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    gating = scenario.gating.resolve(params)
    k = scenario.gating.rabi_per_sqrt_power
    p_knee = 1.0 / (k ** 2 * params.t1 * params.t2)
    powers = np.linspace(0.0, 5.0 * p_knee, 101)
    gated = [c for _, c in em.saturation_curve(params, gating, powers, k, gate_on=True)]
    laser = [c for _, c in em.saturation_curve(params, gating, powers, k, gate_on=False)]
    write_csv(outdir / "fig1d.csv", "power_nw,counts_gated,counts_laser_only", [powers, gated, laser])
    render_lines(
        outdir / "fig1d.svg",
        {"gated": (powers, gated), "laser only": (powers, laser)},
        title="Source intensity vs resonant power",
        xlabel="power (nW)",
        ylabel="detected counts/s",
    )
    knee = em.saturation_curve(params, gating, [p_knee], k)[0][1]
    leak = gating.laser_leakage * p_knee
    return {"power_knee_nw": p_knee, "emission_to_laser_at_knee": (knee - leak) / leak}


def _fig2a(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    taus = np.linspace(-120.0, 120.0, 12001)
    ideal = g2(params, rabi, taus)
    detected = convolve_timing(
        apply_blinking(ideal, scenario.blinking.resolve()), scenario.timing.resolve()
    )
    write_csv(outdir / "fig2a.csv", "tau_ns,g2,g2_detected", [taus, ideal.values, detected.values])
    render_lines(
        outdir / "fig2a.svg",
        {"ideal": (taus, ideal.values), "detected": (taus, detected.values)},
        title="Intensity autocorrelation under CW drive",
        xlabel="tau (ns)",
        ylabel="g2",
    )
    return {"g2_zero_ideal": float(ideal.values[len(taus) // 2]), "rabi_rad_ns": rabi}


def _fig2b(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    response = scenario.spectral.resolve()
    grid = np.linspace(-40.0, 40.0, 4096)
    trace = emission_spectrum(params, rabi, response, grid)
    instrument = lorentzian(grid, 0.0, response.instrument_fwhm)
    write_csv(
        outdir / "fig2b.csv",
        "energy_uev,density,instrument_profile",
        [grid, trace.density, instrument],
    )
    render_lines(
        outdir / "fig2b.svg",
        {"emission": (grid, trace.density), "instrument": (grid, instrument)},
        title="Emission spectrum",
        xlabel="energy - laser (µeV)",
        ylabel="density (1/µeV)",
    )
    return {"coherent_weight": trace.coherent_weight, "natural_linewidth_uev": params.linewidth_uev()}


def _fig2c(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params_cavity = scenario.emitter.resolve().with_coherence_ratio(1.0)
    params_bulk = em.default_bulk_params()
    freqs = np.linspace(0.0, 3.0, 121)
    omegas = 2.0 * math.pi * freqs
    s = omegas ** 2 * params_cavity.t1 * params_cavity.t2
    i_total = s / (1.0 + s)
    frac_1 = [em.rrs_fraction(params_cavity, w) for w in omegas]
    frac_03 = [em.rrs_fraction(params_bulk, w) for w in omegas]
    write_csv(
        outdir / "fig2c.csv",
        "rabi_ghz,i_total_norm,rrs_frac_ratio1.0,rrs_frac_ratio0.3",
        [freqs, i_total, frac_1, frac_03],
    )
    render_lines(
        outdir / "fig2c.svg",
        {
            "I_total (norm.)": (freqs, i_total),
            "coherent fraction, ratio 1.0": (freqs, frac_1),
            "coherent fraction, ratio 0.3": (freqs, frac_03),
        },
        title="Coherent-scattering fraction vs drive",
        xlabel="Rabi frequency (GHz)",
        ylabel="fraction",
    )
    return {"max_frac_ratio0.3": float(np.max(frac_03)), "max_frac_ratio1.0": float(np.max(frac_1))}


_HOM_TAUS = np.linspace(-25.0, 25.0, 4001)


def _fig2d(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    par, orth = hom_pair(
        params, rabi, scenario.hom.resolve(), _HOM_TAUS, scenario.timing.resolve()
    )
    write_csv(
        outdir / "fig2d.csv",
        "tau_ns,g2_parallel,g2_orthogonal",
        [_HOM_TAUS, par.values, orth.values],
    )
    render_lines(
        outdir / "fig2d.svg",
        {"parallel": (_HOM_TAUS, par.values), "orthogonal": (_HOM_TAUS, orth.values)},
        title="Two-photon interference (CW)",
        xlabel="tau (ns)",
        ylabel="g2",
    )
    mid = len(_HOM_TAUS) // 2
    return {"g2_parallel_zero": float(par.values[mid]), "g2_orthogonal_zero": float(orth.values[mid])}


def _fig2e(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    setup = scenario.hom.resolve()
    irf_fwhm = solve_timing_for_visibility(
        params.with_coherence_ratio(1.0), rabi, setup, _HOM_TAUS, target=0.89
    )
    from .correlations import TimingResponse

    irf = TimingResponse(fwhm=irf_fwhm)
    ratios = [0.3, 0.5, 0.8, 1.0]
    traces = visibility_family(params, rabi, setup, ratios, _HOM_TAUS, irf)
    cols = [_HOM_TAUS] + [t.values for t in traces]
    header = "tau_ns," + ",".join(f"v_ratio{r:g}" for r in ratios)
    write_csv(outdir / "fig2e.csv", header, cols)
    render_lines(
        outdir / "fig2e.svg",
        {f"ratio {r:g}": (_HOM_TAUS, t.values) for r, t in zip(ratios, traces)},
        title="Interference visibility vs coherence ratio",
        xlabel="tau (ns)",
        ylabel="visibility",
    )
    peak = float(np.max(traces[-1].values))
    print(f"fig2e: timing IRF {irf_fwhm:.4f} ns reproduces peak visibility {peak:.3f}")
    return {"irf_fwhm_ns": irf_fwhm, "peak_visibility_ratio1.0": peak}


def _fig3b(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    train = scenario.pulse_train.resolve()
    stream = simulate_stream(params, train, scenario.seed, workers=threads)
    report = hbt_analyze(stream)
    centers, counts = coincidence_histogram(stream.times, 3.2 * train.pair_period, 0.05)
    write_csv(outdir / "fig3b.csv", "lag_ns,coincidences", [centers, counts])
    render_lines(
        outdir / "fig3b.svg",
        {"coincidences": (centers, counts)},
        title="Pulsed autocorrelation",
        xlabel="lag (ns)",
        ylabel="coincidences",
    )
    print(
        f"fig3b: g = {report.g_metric:.4f} ± {report.g_metric_err:.4f}, "
        f"g2(0) = {report.g2_zero:.4f} ± {report.g2_zero_err:.4f}"
    )
    return {
        "g_metric": report.g_metric,
        "g_metric_err": report.g_metric_err,
        "g2_zero": report.g2_zero,
        "g2_zero_err": report.g2_zero_err,
        "mean_per_pulse": stream.mean_per_pulse,
        "workers": threads,
    }


def _fig3c(scenario: Scenario, outdir: Path, threads: int) -> dict:
    params = scenario.emitter.resolve()
    train = scenario.pulse_train.resolve()
    stream = simulate_stream(params, train, scenario.seed, workers=threads)
    report = pulsed_hom(stream, scenario.source_model.overlap, scenario.seed + 1)
    lags, par, orth = [], [], []
    areas_o = report.aux["areas_orthogonal"]
    for d in (-2, -1, 0, 1, 2):
        lags.append(d * train.separation)
        split = 1.0 if d == 0 else 0.5
        par.append(report.peak_areas[abs(d)] * split)
        orth.append(areas_o[abs(d)] * split)
    write_csv(
        outdir / "fig3c.csv",
        "peak_lag_ns,coincidences_parallel,coincidences_orthogonal",
        [lags, par, orth],
    )
    render_lines(
        outdir / "fig3c.svg",
        {"parallel": (lags, par), "orthogonal": (lags, orth)},
        title="Pulsed two-photon interference peak areas",
        xlabel="lag (ns)",
        ylabel="coincidences",
        scatter=True,
    )
    print(f"fig3c: two-photon overlap estimate {report.overlap:.3f}")
    return {
        "overlap_estimate": report.overlap,
        "overlap_raw": report.aux["overlap_raw"],
        "g_metric": report.g_metric,
        "workers": threads,
    }


def _circuit_fringes(scenario: Scenario, outdir: Path, csv_name: str, input_kinds):
    """Fringe tables of the scenario's interferometer, one per input kind;
    the last one is written to csv_name. Returns (r1, r2, tables)."""
    blk = scenario.circuit
    r1, r2 = blk.couplers()
    phi = blk.phi_grid()
    source = scenario.source_model.resolve()
    tables = [mzi_fringes(source, r1, r2, phi, input_kind=kind) for kind in input_kinds]
    with open(outdir / csv_name, "w", newline="\n") as fh:
        fh.write("\n".join(tables[-1].csv_rows()) + "\n")
    return r1, r2, tables


def _fig3d(scenario: Scenario, outdir: Path, threads: int) -> dict:
    r1, r2, [table] = _circuit_fringes(scenario, outdir, "fig3d.csv", ("single",))
    fit = fit_fringe(table, harmonic=1, column="p_out0")
    render_lines(
        outdir / "fig3d.svg",
        {"out 0": (table.phi, table.p_out0), "out 1": (table.phi, table.p_out1)},
        title="Single-photon fringes",
        xlabel="phase (rad)",
        ylabel="probability",
    )
    print(f"fig3d: fitted single-photon visibility {fit.visibility:.4f}")
    return {"visibility": fit.visibility, "frequency": fit.frequency, "r1": r1, "r2": r2}


def _fig3e(scenario: Scenario, outdir: Path, threads: int) -> dict:
    _, _, [single, dual] = _circuit_fringes(scenario, outdir, "fig3e.csv", ("single", "dual"))
    fit_s = fit_fringe(single, harmonic=1, column="p_out0")
    fit_d = fit_fringe(dual, harmonic=2, column="p_coincidence")
    ratio = fit_d.frequency / fit_s.frequency
    render_lines(
        outdir / "fig3e.svg",
        {"coincidence": (dual.phi, dual.p_coincidence)},
        title="Two-photon coincidence fringes",
        xlabel="phase (rad)",
        ylabel="probability",
    )
    print(f"fig3e: coincidence/single fringe frequency ratio {ratio:.3f}")
    return {
        "frequency_ratio": ratio,
        "coincidence_min": float(np.min(dual.p_coincidence)),
        "coincidence_visibility": fit_d.visibility,
    }


_FIGURES = {
    "fig1d": _fig1d,
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig2d": _fig2d,
    "fig2e": _fig2e,
    "fig3b": _fig3b,
    "fig3c": _fig3c,
    "fig3d": _fig3d,
    "fig3e": _fig3e,
}
FIGURE_IDS = tuple(_FIGURES)


def run_figure(fig_id: str, scenario: Scenario, threads: int = 1) -> dict:
    outdir = Path(scenario.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = _FIGURES[fig_id](scenario, outdir, threads)
    write_manifest(outdir, f"fig {fig_id}", scenario, results)
    return results


# ---------------------------------------------------------------------------
# sim runners


def _sim_steady(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    conventions = scenario.drive.conventions()
    rows = []
    for label, omega in conventions.items():
        s = omega ** 2 * params.t1 * params.t2
        rho = em.steady_state(params, omega).rho_ee()
        frac = em.rrs_fraction(params, omega)
        rows.append((label, omega, s, rho, frac))
        print(
            f"steady [{label}]: omega = {omega:.6g} rad/ns, s = {s:.6g}, "
            f"rho_ee = {rho:.6g}, coherent fraction = {frac:.6g}"
        )
    write_csv(
        outdir / "steady.csv",
        "convention,omega_rad_ns,s,rho_ee,rrs_fraction",
        [[r[0] for r in rows]] + [[r[i] for r in rows] for i in (1, 2, 3, 4)],
    )
    return {label: {"omega_rad_ns": o, "s": s, "rho_ee": r, "rrs_fraction": f}
            for label, o, s, r, f in rows}


def _sim_g2(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    taus = np.linspace(-args.tau_max, args.tau_max, args.points)
    trace = g2(params, scenario.drive.resolve(), taus)
    write_csv(outdir / "g2.csv", "tau_ns,g2", [taus, trace.values])
    return {"g2_zero": float(trace.values[args.points // 2])}


def _sim_g1(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    taus = np.linspace(0.0, args.tau_max, args.points)
    trace = g1(params, scenario.drive.resolve(), taus)
    write_csv(
        outdir / "g1.csv",
        "tau_ns,g1_real,g1_imag,g1_abs",
        [taus, trace.values.real, trace.values.imag, np.abs(trace.values)],
    )
    return {"coherent_offset": trace.coherent_offset}


def _sim_spectrum(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    grid = np.linspace(-args.span_uev / 2.0, args.span_uev / 2.0, args.points)
    trace = emission_spectrum(params, scenario.drive.resolve(), scenario.spectral.resolve(), grid)
    write_csv(outdir / "spectrum.csv", "energy_uev,density", [grid, trace.density])
    return {"coherent_weight": trace.coherent_weight}


def _sim_hom_cw(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    setup = scenario.hom.resolve()
    taus = np.linspace(-args.tau_max, args.tau_max, args.points)
    irf = scenario.timing.resolve()
    par, orth = hom_pair(params, rabi, setup, taus, irf)
    vis = visibility(par, orth)
    write_csv(
        outdir / "hom_cw.csv",
        "tau_ns,g2_parallel,g2_orthogonal,visibility",
        [taus, par.values, orth.values, vis.values],
    )
    return {"peak_visibility": float(np.max(vis.values))}


def _sim_rabi(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    areas_pi = np.linspace(0.0, args.max_area_pi, args.points)
    fwhm = args.fwhm_ns if args.fwhm_ns is not None else scenario.pulse_train.pulse_fwhm_ns
    curve = rabi_curve(params, areas_pi * math.pi, fwhm, shape=scenario.pulse_train.shape)
    probs = [p for _, p in curve]
    write_csv(outdir / "rabi.csv", "area_pi,emission_probability", [areas_pi, probs])
    return {"max_probability": float(np.max(probs)), "pulse_fwhm_ns": fwhm}


def _sim_stream(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    train = scenario.pulse_train.resolve(n_pairs=args.pairs)
    stream = simulate_stream(params, train, scenario.seed, workers=threads)
    sidecar = export_stream(stream, outdir / "stream.csv")
    return {
        "n_tags": stream.n_tags,
        "mean_per_pulse": stream.mean_per_pulse,
        "sidecar": os.path.basename(sidecar),
        "workers": threads,
    }


def _sim_hbt(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    train = scenario.pulse_train.resolve(n_pairs=args.pairs)
    stream = simulate_stream(params, train, scenario.seed, workers=threads)
    report = hbt_analyze(stream)
    centers, counts = coincidence_histogram(stream.times, 3.2 * train.pair_period, 0.05)
    write_csv(outdir / "hbt.csv", "lag_ns,coincidences", [centers, counts])
    print(f"hbt: g = {report.g_metric:.4f} ± {report.g_metric_err:.4f}")
    return {
        "g_metric": report.g_metric,
        "g_metric_err": report.g_metric_err,
        "g2_zero": report.g2_zero,
        "workers": threads,
    }


def _sim_hom_pulsed(scenario, outdir, args, threads) -> dict:
    params = scenario.emitter.resolve()
    train = scenario.pulse_train.resolve(n_pairs=args.pairs)
    stream = simulate_stream(params, train, scenario.seed, workers=threads)
    report = pulsed_hom(stream, scenario.source_model.overlap, scenario.seed + 1)
    rows = sorted(report.peak_areas.items())
    write_csv(
        outdir / "hom_pulsed.csv",
        "peak_index,coincidences_parallel,coincidences_orthogonal",
        [
            [r[0] for r in rows],
            [r[1] for r in rows],
            [report.aux["areas_orthogonal"][r[0]] for r in rows],
        ],
    )
    print(f"hom-pulsed: overlap estimate {report.overlap:.3f}")
    return {"overlap_estimate": report.overlap, "g_metric": report.g_metric, "workers": threads}


def _sim_noon(scenario, outdir, args, threads) -> dict:
    r1, r2, [table] = _circuit_fringes(scenario, outdir, "noon.csv", (args.input,))
    results = {"input": args.input, "r1": r1, "r2": r2}
    if args.input == "dual":
        fit = fit_fringe(table, harmonic=2, column="p_coincidence")
        results.update({"coincidence_visibility": fit.visibility, "frequency": fit.frequency})
    else:
        fit = fit_fringe(table, harmonic=1, column="p_out0")
        results.update({"visibility": fit.visibility, "frequency": fit.frequency})
    return results


_SIMS = {
    "steady": _sim_steady,
    "g2": _sim_g2,
    "g1": _sim_g1,
    "spectrum": _sim_spectrum,
    "hom-cw": _sim_hom_cw,
    "rabi": _sim_rabi,
    "stream": _sim_stream,
    "hbt": _sim_hbt,
    "hom-pulsed": _sim_hom_pulsed,
    "noon": _sim_noon,
}


def run_sim(name: str, scenario: Scenario, args, threads: int = 1) -> dict:
    outdir = Path(scenario.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = _SIMS[name](scenario, outdir, args, threads)
    write_manifest(outdir, f"sim {name}", scenario, results)
    return results


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohscat",
        description="Coherent-scattering simulator for a cavity-enhanced two-level emitter",
    )
    parser.add_argument("--version", action="version", version=f"cohscat {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--config", help="JSON scenario (a manifest.json also works)")
        p.add_argument("--out", help="output directory (overrides the scenario)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides the scenario)")
        p.add_argument("--threads", type=_positive_int, help="worker count for Monte Carlo runs")

    p_fig = sub.add_parser("fig", help="reproduce a bundled figure scenario")
    p_fig.add_argument("id", choices=FIGURE_IDS)
    common(p_fig)

    p_sim = sub.add_parser("sim", help="run one simulation")
    sims = p_sim.add_subparsers(dest="sim", required=True)

    def sim_parser(name, **extra):
        p = sims.add_parser(name)
        common(p)
        return p

    p = sim_parser("steady")
    p.add_argument("--rabi-ghz", type=_nonnegative_float, help="drive frequency in GHz")
    for name in ("g2", "g1"):
        p = sim_parser(name)
        p.add_argument("--rabi-ghz", type=_nonnegative_float)
        p.add_argument("--tau-max", type=_positive_float, default=10.0)
        p.add_argument("--points", type=_positive_int, default=1001)
    p = sim_parser("spectrum")
    p.add_argument("--rabi-ghz", type=_nonnegative_float)
    p.add_argument("--span-uev", type=_positive_float, default=80.0)
    p.add_argument("--points", type=_positive_int, default=4096)
    p = sim_parser("hom-cw")
    p.add_argument("--rabi-ghz", type=_nonnegative_float)
    p.add_argument("--tau-max", type=_positive_float, default=25.0)
    p.add_argument("--points", type=_positive_int, default=4001)
    p = sim_parser("rabi")
    p.add_argument("--max-area-pi", type=_nonnegative_float, default=3.0)
    p.add_argument("--points", type=_positive_int, default=61)
    p.add_argument("--fwhm-ns", type=_positive_float, default=None)
    for name in ("stream", "hbt", "hom-pulsed"):
        p = sim_parser(name)
        p.add_argument("--pairs", type=_positive_int, default=None)
    p = sim_parser("noon")
    p.add_argument("--input", choices=("single", "dual"), default="dual")
    return parser


def _load_scenario(args) -> Scenario:
    scenario = Scenario.from_json(args.config) if args.config else Scenario()
    if args.out is not None:
        scenario = dataclasses.replace(scenario, output_dir=args.out)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if getattr(args, "rabi_ghz", None) is not None:
        drive = dataclasses.replace(scenario.drive, rabi_ghz=args.rabi_ghz, rabi_rad_ns=None)
        scenario = dataclasses.replace(scenario, drive=drive)
    if getattr(args, "pairs", None) is not None:
        train = dataclasses.replace(scenario.pulse_train, n_pairs=args.pairs)
        scenario = dataclasses.replace(scenario, pulse_train=train)
    return scenario


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _load_scenario(args)
        threads = _thread_count(args.threads)
        if args.mode == "fig":
            run_figure(args.id, scenario, threads)
        else:
            run_sim(args.sim, scenario, args, threads)
    except SchemaError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (
        ValueError,
        RuntimeError,
        IntegrationError,
        GridError,
        FitConvergenceError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
