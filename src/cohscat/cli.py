"""Command-line harness: reproduces the bundled figure scenarios and exposes
the individual simulations.

Every run resolves one Scenario (config file plus flag overrides) and looks
its runner up in one table: `_FIGURES` for `fig <id>`, `_SIMS` for
`sim <name>` (which also holds each simulation's flags). A runner only
computes; it returns an `_Output`. After it returns, `run` writes every
output under the output directory: the CSV data file, the SVG rendering of a
figure, and manifest.json, which echoes the fully resolved scenario so it
can be re-used as a config. A run that fails writes nothing. Exit codes:
0 success, 2 schema, flag or file error (a --config or --out that
cannot be used), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import locale  # noqa: F401 -- argparse's gettext loads it lazily; load it with the module, not in a run
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, _text
from . import emitter as em
from ._svg import render_lines
from .correlations import TimingResponse, apply_blinking, convolve_timing, g1, g2
from .fock import fit_fringe, mzi_fringes
from .hom import hom_pair, solve_timing_for_visibility, visibility
from .scenario import _MAX_PHI_POINTS, Scenario, SchemaError
from .spectrum import emission_spectrum, lorentzian


def write_csv(path, header: str, columns) -> None:
    """Header plus one row per entry of the equal-length columns.

    Cells follow `_text.cells`: integers and booleans as ``str(int(v))``,
    strings as given, floats as ``format(v, ".12g")``, byte for byte; the
    values that the column-wise path cannot decide exactly (non-finite,
    +-0, scientific notation, near rounding ties) take Python's formatter.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(_text.csv_lines(columns))


def _manifest_text(command: str, scenario: Scenario, results: dict, threads: int) -> str:
    payload = {
        "artifact": "cohscat",
        "version": __version__,
        "command": command,
        "scenario": scenario.resolved_dict(),
        "results": results,
        # how this run was made, not what it found: results never depend on it
        "diagnostics": {"threads": threads},
    }
    # A NaN or infinity raises ValueError here, before any file opens.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _grid_points(text: str) -> int:
    value = _positive_int(text)
    if value > _MAX_PHI_POINTS:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_PHI_POINTS}, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _pulse_fwhm(text: str) -> float:
    """A pulse width that `emitter.Pulse` accepts for either shape: the
    flag is parsed before the scenario names the shape."""
    value = _positive_float(text)
    try:
        for shape in ("square", "gaussian"):
            em.Pulse(1.0, value, shape)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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


@dataclasses.dataclass(frozen=True)
class _Output:
    """Everything one command writes, computed before the first write.

    csv names the data file, written from header and columns. plot holds
    the `render_lines` arguments after the path (a figure's SVG sits next to
    its CSV); line is printed to stdout.
    """

    csv: str
    header: str
    columns: list
    results: dict
    plot: tuple | None = None
    line: str | None = None


# ---------------------------------------------------------------------------
# pipelines shared by a figure and its sim twin
#
# The Monte Carlo engine is imported only by the runners that use it, so no
# other command loads it, and is called through the `pulsed` module
# attribute (`pulsed.simulate_stream`, `pulsed.pulsed_hom`); `hom_pair` is
# called through this module's globals. Wrappers bound over either see
# every call.


def _stream(scenario: Scenario, threads: int):
    from . import pulsed

    return pulsed.simulate_stream(scenario.emitter.resolve(), scenario.pulse_train, scenario.seed, workers=threads)


def _hbt(scenario: Scenario, threads: int):
    """Stream, its HBT report and its coincidence histogram (centers, counts)."""
    from . import pulsed

    stream = _stream(scenario, threads)
    report = pulsed.hbt_analyze(stream)
    return stream, report, pulsed.coincidence_histogram(stream.times, 3.2 * stream.train.pair_period_ns, 0.05)


def _hom_pulsed(scenario: Scenario, threads: int):
    from . import pulsed

    stream = _stream(scenario, threads)
    return stream.train, pulsed.pulsed_hom(stream, scenario.source_model.overlap, scenario.seed)


def _hom_cw(scenario: Scenario, taus):
    """The (parallel, orthogonal) pair as the scenario's detector records it."""
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    pair = hom_pair(params, rabi, scenario.hom.resolve(), taus)
    return tuple(convolve_timing(taus, t, scenario.timing) for t in pair)


def _spectrum(scenario: Scenario, grid):
    """params, the emission density on grid and its coherent weight."""
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    density = emission_spectrum(params, rabi, scenario.spectral, grid)
    return params, density, min(em.rrs_fraction(params, rabi), 1.0)


_FRINGE_HEADER = "phi_rad,p_out0,p_out1,p_coincidence"


def _fringes(scenario: Scenario, *input_kinds):
    """Couplers (r1, r2) of the scenario's interferometer and its fringe
    tables, one per input kind."""
    r1, r2, phi = scenario.circuit.resolve()
    return r1, r2, [mzi_fringes(scenario.source_model, r1, r2, phi, input_kind=kind) for kind in input_kinds]


def _fringe_columns(table) -> list:
    return [table.phi, table.p_out0, table.p_out1, table.p_coincidence]


# ---------------------------------------------------------------------------
# figure runners


def _fig1d(scenario: Scenario, args, threads: int) -> _Output:
    params, gating = scenario.emitter.resolve(), scenario.gating
    p_knee = gating.knee_power(params)
    powers = np.linspace(0.0, 5.0 * p_knee, 101)
    gated = gating.counts(params, powers, gate_on=True)
    laser = gating.counts(params, powers, gate_on=False)
    leak = gating.leakage(params) * p_knee
    knee = gating.counts(params, p_knee)
    return _Output(
        "fig1d.csv", "power_nw,counts_gated,counts_laser_only", [powers, gated, laser],
        {"power_knee_nw": p_knee, "emission_to_laser_at_knee": (knee - leak) / leak},
        plot=({"gated": (powers, gated), "laser only": (powers, laser)},
              "Source intensity vs resonant power", "power (nW)", "detected counts/s"),
    )


def _fig2a(scenario: Scenario, args, threads: int) -> _Output:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    taus = np.linspace(-120.0, 120.0, 12001)
    ideal = g2(params, rabi, taus)
    detected = convolve_timing(taus, apply_blinking(taus, ideal, scenario.blinking), scenario.timing)
    return _Output(
        "fig2a.csv", "tau_ns,g2,g2_detected", [taus, ideal, detected],
        {"g2_zero_ideal": float(ideal[len(taus) // 2]), "rabi_rad_ns": rabi},
        plot=({"ideal": (taus, ideal), "detected": (taus, detected)},
              "Intensity autocorrelation under CW drive", "tau (ns)", "g2"),
    )


def _fig2b(scenario: Scenario, args, threads: int) -> _Output:
    grid = np.linspace(-40.0, 40.0, 4096)
    params, density, weight = _spectrum(scenario, grid)
    instrument = lorentzian(grid, 0.0, scenario.spectral.instrument_fwhm_uev)
    return _Output(
        "fig2b.csv", "energy_uev,density,instrument_profile", [grid, density, instrument],
        {"coherent_weight": weight, "natural_linewidth_uev": params.linewidth_uev()},
        plot=({"emission": (grid, density), "instrument": (grid, instrument)},
              "Emission spectrum", "energy - laser (µeV)", "density (1/µeV)"),
    )


def _fig2c(scenario: Scenario, args, threads: int) -> _Output:
    params_cavity = scenario.emitter.resolve().with_coherence_ratio(1.0)
    params_bulk = em.default_bulk_params()
    freqs = np.linspace(0.0, 3.0, 121)
    omegas = 2.0 * math.pi * freqs
    s = em.saturation_parameter(params_cavity, omegas)
    i_total = s / (1.0 + s)
    frac_1 = em.rrs_fraction(params_cavity, omegas)
    frac_03 = em.rrs_fraction(params_bulk, omegas)
    series = {
        "I_total (norm.)": (freqs, i_total),
        "coherent fraction, ratio 1.0": (freqs, frac_1),
        "coherent fraction, ratio 0.3": (freqs, frac_03),
    }
    return _Output(
        "fig2c.csv", "rabi_ghz,i_total_norm,rrs_frac_ratio1.0,rrs_frac_ratio0.3",
        [freqs, i_total, frac_1, frac_03],
        {"max_frac_ratio0.3": float(np.max(frac_03)), "max_frac_ratio1.0": float(np.max(frac_1))},
        plot=(series, "Coherent-scattering fraction vs drive", "Rabi frequency (GHz)", "fraction"),
    )


_HOM_TAUS = np.linspace(-25.0, 25.0, 4001)


def _fig2d(scenario: Scenario, args, threads: int) -> _Output:
    par, orth = _hom_cw(scenario, _HOM_TAUS)
    mid = len(_HOM_TAUS) // 2
    return _Output(
        "fig2d.csv", "tau_ns,g2_parallel,g2_orthogonal", [_HOM_TAUS, par, orth],
        {"g2_parallel_zero": float(par[mid]), "g2_orthogonal_zero": float(orth[mid])},
        plot=({"parallel": (_HOM_TAUS, par), "orthogonal": (_HOM_TAUS, orth)},
              "Two-photon interference (CW)", "tau (ns)", "g2"),
    )


def _fig2e(scenario: Scenario, args, threads: int) -> _Output:
    params = scenario.emitter.resolve()
    rabi = scenario.drive.resolve()
    setup = scenario.hom.resolve()
    ratios = [0.3, 0.5, 0.8, 1.0]
    pairs = [hom_pair(params.with_coherence_ratio(r), rabi, setup, _HOM_TAUS) for r in ratios]
    # the ratio-1.0 pair sets the IRF
    irf_fwhm = solve_timing_for_visibility(_HOM_TAUS, *pairs[-1], target=0.89)
    irf = TimingResponse(fwhm_ns=irf_fwhm)
    traces = [visibility(*(convolve_timing(_HOM_TAUS, t, irf) for t in pair)) for pair in pairs]
    peak = float(np.max(traces[-1]))
    return _Output(
        "fig2e.csv", "tau_ns," + ",".join(f"v_ratio{r:g}" for r in ratios),
        [_HOM_TAUS, *traces],
        {"irf_fwhm_ns": irf_fwhm, "peak_visibility_ratio1.0": peak},
        plot=({f"ratio {r:g}": (_HOM_TAUS, t) for r, t in zip(ratios, traces)},
              "Interference visibility vs coherence ratio", "tau (ns)", "visibility"),
        line=f"fig2e: timing IRF {irf_fwhm:.4f} ns reproduces peak visibility {peak:.3f}",
    )


def _fig3b(scenario: Scenario, args, threads: int) -> _Output:
    stream, report, (centers, counts) = _hbt(scenario, threads)
    return _Output(
        "fig3b.csv", "lag_ns,coincidences", [centers, counts],
        {"g_metric": report.g_metric, "g_metric_err": report.g_metric_err,
         "g2_zero": report.g2_zero, "g2_zero_err": report.g2_zero_err,
         "mean_per_pulse": stream.mean_per_pulse},
        plot=({"coincidences": (centers, counts)}, "Pulsed autocorrelation", "lag (ns)", "coincidences"),
        line=f"fig3b: g = {report.g_metric:.4f} ± {report.g_metric_err:.4f}, "
        f"g2(0) = {report.g2_zero:.4f} ± {report.g2_zero_err:.4f}",
    )


def _fig3c(scenario: Scenario, args, threads: int) -> _Output:
    train, report = _hom_pulsed(scenario, threads)
    lags, par, orth = [], [], []
    areas_o = report.aux["areas_orthogonal"]
    for d in (-2, -1, 0, 1, 2):
        lags.append(d * train.separation_ns)
        split = 1.0 if d == 0 else 0.5
        par.append(report.peak_areas[abs(d)] * split)
        orth.append(areas_o[abs(d)] * split)
    return _Output(
        "fig3c.csv", "peak_lag_ns,coincidences_parallel,coincidences_orthogonal", [lags, par, orth],
        {"overlap_estimate": report.overlap, "overlap_raw": report.aux["overlap_raw"],
         "g_metric": report.g_metric},
        plot=({"parallel": (lags, par), "orthogonal": (lags, orth)},
              "Pulsed two-photon interference peak areas", "lag (ns)", "coincidences", True),
        line=f"fig3c: two-photon overlap estimate {report.overlap:.3f}",
    )


def _fig3d(scenario: Scenario, args, threads: int) -> _Output:
    r1, r2, [table] = _fringes(scenario, "single")
    fit = fit_fringe(table, harmonic=1)
    return _Output(
        "fig3d.csv", _FRINGE_HEADER, _fringe_columns(table),
        {"visibility": fit.visibility, "frequency": fit.frequency, "r1": r1, "r2": r2},
        plot=({"out 0": (table.phi, table.p_out0), "out 1": (table.phi, table.p_out1)},
              "Single-photon fringes", "phase (rad)", "probability"),
        line=f"fig3d: fitted single-photon visibility {fit.visibility:.4f}",
    )


def _fig3e(scenario: Scenario, args, threads: int) -> _Output:
    _, _, [single, dual] = _fringes(scenario, "single", "dual")
    fit_s = fit_fringe(single, harmonic=1)
    fit_d = fit_fringe(dual, harmonic=2)
    ratio = fit_d.frequency / fit_s.frequency
    return _Output(
        "fig3e.csv", _FRINGE_HEADER, _fringe_columns(dual),
        {"frequency_ratio": ratio, "coincidence_min": float(np.min(dual.p_coincidence)),
         "coincidence_visibility": fit_d.visibility},
        plot=({"coincidence": (dual.phi, dual.p_coincidence)},
              "Two-photon coincidence fringes", "phase (rad)", "probability"),
        line=f"fig3e: coincidence/single fringe frequency ratio {ratio:.3f}",
    )


_FIGURES = {
    "fig1d": _fig1d, "fig2a": _fig2a, "fig2b": _fig2b, "fig2c": _fig2c, "fig2d": _fig2d,
    "fig2e": _fig2e, "fig3b": _fig3b, "fig3c": _fig3c, "fig3d": _fig3d, "fig3e": _fig3e,
}
FIGURE_IDS = tuple(_FIGURES)


# ---------------------------------------------------------------------------
# sim runners


def _sim_steady(scenario: Scenario, args, threads: int) -> _Output:
    params = scenario.emitter.resolve()
    rows = []
    for label, omega in scenario.drive.conventions().items():
        s = em.saturation_parameter(params, omega)
        rows.append((label, omega, s, em.steady_rho_ee(params, omega), em.rrs_fraction(params, omega)))
    return _Output(
        "steady.csv", "convention,omega_rad_ns,s,rho_ee,rrs_fraction", list(zip(*rows)),
        {label: {"omega_rad_ns": o, "s": s, "rho_ee": r, "rrs_fraction": f}
         for label, o, s, r, f in rows},
        line="\n".join(f"steady [{label}]: omega = {o:.6g} rad/ns, s = {s:.6g}, "
                       f"rho_ee = {r:.6g}, coherent fraction = {f:.6g}" for label, o, s, r, f in rows),
    )


def _sim_g2(scenario: Scenario, args, threads: int) -> _Output:
    params, rabi = scenario.emitter.resolve(), scenario.drive.resolve()
    taus = np.linspace(-args.tau_max, args.tau_max, args.points)
    return _Output("g2.csv", "tau_ns,g2", [taus, g2(params, rabi, taus)],
                   {"g2_zero": float(g2(params, rabi, [0.0])[0])})


def _sim_g1(scenario: Scenario, args, threads: int) -> _Output:
    params, rabi = scenario.emitter.resolve(), scenario.drive.resolve()
    taus = np.linspace(0.0, args.tau_max, args.points)
    vals = g1(params, rabi, taus)
    return _Output("g1.csv", "tau_ns,g1_real,g1_imag,g1_abs", [taus, vals.real, vals.imag, np.abs(vals)],
                   {"coherent_offset": em.rrs_fraction(params, rabi)})


def _sim_spectrum(scenario: Scenario, args, threads: int) -> _Output:
    grid = np.linspace(-args.span_uev / 2.0, args.span_uev / 2.0, args.points)
    _, density, weight = _spectrum(scenario, grid)
    return _Output("spectrum.csv", "energy_uev,density", [grid, density], {"coherent_weight": weight})


def _sim_hom_cw(scenario: Scenario, args, threads: int) -> _Output:
    taus = np.linspace(-args.tau_max, args.tau_max, args.points)
    par, orth = _hom_cw(scenario, taus)
    vis = visibility(par, orth)
    return _Output("hom_cw.csv", "tau_ns,g2_parallel,g2_orthogonal,visibility",
                   [taus, par, orth, vis],
                   {"peak_visibility": float(np.max(vis))})


def _sim_rabi(scenario: Scenario, args, threads: int) -> _Output:
    from . import pulsed

    params = scenario.emitter.resolve()
    areas_pi = np.linspace(0.0, args.max_area_pi, args.points)
    fwhm = args.fwhm_ns if args.fwhm_ns is not None else scenario.pulse_train.pulse_fwhm_ns
    curve = pulsed.rabi_curve(params, areas_pi * math.pi, fwhm, shape=scenario.pulse_train.shape)
    probs = [p for _, p in curve]
    return _Output("rabi.csv", "area_pi,emission_probability", [areas_pi, probs],
                   {"max_probability": float(np.max(probs)), "pulse_fwhm_ns": fwhm})


def _sim_stream(scenario: Scenario, args, threads: int) -> _Output:
    stream = _stream(scenario, threads)
    return _Output("stream.csv", "pair_index,pulse_index,time_ns",
                   [stream.pair_index, stream.pulse_index, stream.times],
                   {"n_tags": stream.n_tags, "mean_per_pulse": stream.mean_per_pulse})


def _sim_hbt(scenario: Scenario, args, threads: int) -> _Output:
    _, report, (centers, counts) = _hbt(scenario, threads)
    return _Output(
        "hbt.csv", "lag_ns,coincidences", [centers, counts],
        {"g_metric": report.g_metric, "g_metric_err": report.g_metric_err,
         "g2_zero": report.g2_zero},
        line=f"hbt: g = {report.g_metric:.4f} ± {report.g_metric_err:.4f}",
    )


def _sim_hom_pulsed(scenario: Scenario, args, threads: int) -> _Output:
    _, report = _hom_pulsed(scenario, threads)
    lags = sorted(report.peak_areas)
    return _Output(
        "hom_pulsed.csv", "peak_index,coincidences_parallel,coincidences_orthogonal",
        [lags, [report.peak_areas[d] for d in lags], [report.aux["areas_orthogonal"][d] for d in lags]],
        {"overlap_estimate": report.overlap, "g_metric": report.g_metric},
        line=f"hom-pulsed: overlap estimate {report.overlap:.3f}",
    )


def _sim_noon(scenario: Scenario, args, threads: int) -> _Output:
    r1, r2, [table] = _fringes(scenario, args.input)
    harmonic = 2 if args.input == "dual" else 1
    fit = fit_fringe(table, harmonic=harmonic)
    results = {"input": args.input, "r1": r1, "r2": r2, "frequency": fit.frequency,
               ("coincidence_visibility" if harmonic == 2 else "visibility"): fit.visibility}
    return _Output("noon.csv", _FRINGE_HEADER, _fringe_columns(table), results)


def _flag(name: str, parse, default=None, **extra):
    return name, {"type": parse, "default": default, **extra}


_RABI_GHZ = _flag("--rabi-ghz", _nonnegative_float, help="drive frequency in GHz")
_PAIRS = [_flag("--pairs", _positive_int)]


def _grid_flags(bound: str, bound_default: float, points: int) -> list:
    """--rabi-ghz plus a grid: its bound (--tau-max or --span-uev) and --points."""
    return [_RABI_GHZ, _flag(bound, _positive_float, bound_default),
            _flag("--points", _grid_points, points)]


# sim name -> (runner, its flags as (name, add_argument keywords))
_SIMS = {
    "steady": (_sim_steady, [_RABI_GHZ]),
    "g2": (_sim_g2, _grid_flags("--tau-max", 10.0, 1001)),
    "g1": (_sim_g1, _grid_flags("--tau-max", 10.0, 1001)),
    "spectrum": (_sim_spectrum, _grid_flags("--span-uev", 80.0, 4096)),
    "hom-cw": (_sim_hom_cw, _grid_flags("--tau-max", 25.0, 4001)),
    "rabi": (_sim_rabi, [_flag("--max-area-pi", _nonnegative_float, 3.0),
                         _flag("--points", _grid_points, 61), _flag("--fwhm-ns", _pulse_fwhm)]),
    "stream": (_sim_stream, _PAIRS),
    "hbt": (_sim_hbt, _PAIRS),
    "hom-pulsed": (_sim_hom_pulsed, _PAIRS),
    "noon": (_sim_noon, [_flag("--input", str, "dual", choices=("single", "dual"))]),
}


def run(mode: str, name: str, scenario: Scenario, args, threads: int) -> dict:
    """Run `fig <name>` or `sim <name>` and write its outputs; returns the
    manifest results.

    An output path that cannot become a directory fails before the runner
    starts. The runner returns before the first write, and the manifest is
    serialized before the output directory is made, so a run that fails
    leaves no output behind.
    """
    runner = _FIGURES[name] if mode == "fig" else _SIMS[name][0]
    outdir = Path(scenario.output_dir)
    # the nearest existing path on the way to outdir must be a directory
    for path in (outdir, *outdir.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"output directory {outdir}: {path} is not a directory")
            break
    out = runner(scenario, args, threads)
    manifest = _manifest_text(f"{mode} {name}", scenario, out.results, threads)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / out.csv, out.header, out.columns)
    if out.plot is not None:
        render_lines(outdir / Path(out.csv).with_suffix(".svg"), *out.plot)
    if out.line is not None:
        print(out.line)
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        fh.write(manifest)
    return out.results


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv. Every command is listed, but `sim` gets only
    the subcommand argv names (all of them when it names none it knows,
    so `sim --help` and its usage errors list every one)."""
    # argparse builds a HelpFormatter, which measures the terminal, on every
    # add_argument call; measure it once per build instead, the same way.
    width = shutil.get_terminal_size().columns - 2

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=width)

    parser = argparse.ArgumentParser(
        prog="cohscat",
        description="Coherent-scattering simulator for a cavity-enhanced two-level emitter",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"cohscat {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_fig = sub.add_parser("fig", help="reproduce a bundled figure scenario", formatter_class=formatter)
    p_fig.add_argument("id", choices=FIGURE_IDS)
    sims = sub.add_parser("sim", help="run one simulation", formatter_class=formatter)
    sims = sims.add_subparsers(dest="sim", required=True)
    names = []
    if argv[:1] == ["sim"]:
        names = [argv[1]] if len(argv) > 1 and argv[1] in _SIMS else list(_SIMS)
    commands = [(p_fig, [])] + [
        (sims.add_parser(name, formatter_class=formatter), _SIMS[name][1]) for name in names
    ]
    for p, flags in commands:
        p.add_argument("--config", help="JSON scenario (a manifest.json also works)")
        p.add_argument("--out", help="output directory (overrides the scenario)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides the scenario)")
        p.add_argument("--threads", type=_positive_int, help="Monte Carlo chunk threads; BLAS always runs on one")
        for flag, spec in flags:
            p.add_argument(flag, **spec)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        scenario = _load_scenario(args)
        threads = _thread_count(args.threads)
        run(args.mode, args.id if args.mode == "fig" else args.sim, scenario, args, threads)
    except (SchemaError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:  # GridError, LinAlgError, IntegrationError too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
