"""Output checks for the benchmark's operations.

Each operation's manifest (and, for the Monte Carlo figures, the stream
statistics the op runner collected) is compared with an oracle that does
not share the code path under test:

- closed forms: fig1d contrast, fig2a antibunching, fig2b coherent weight,
  fig2c zero-drive maxima, fig3d single-photon visibility, fig3e fringe
  frequency ratio, and fig2e's visibility target
- the deterministic ODE ensemble `rabi_curve` for the Monte Carlo photon
  number per pulse, within 5 standard errors
- the scenario's true overlap for the pulsed interference estimate, within
  5 of its reported errors
- every other deterministic result against the values stored in
  golden.json, to 1e-6 relative, and every op's CSV row count
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_RTOL = 1e-6
Z_MAX = 5.0


def rrs_fraction_closed_form(t1: float, t2: float, detuning: float, rabi: float) -> float:
    """Coherently scattered share of the steady-state emission of a driven
    two-level system: T2 / (2 T1 (1 + s)), s = W^2 T1 T2 / (1 + (D T2)^2)."""
    s = rabi ** 2 * t1 * t2 / (1.0 + (detuning * t2) ** 2)
    return t2 / (2.0 * t1 * (1.0 + s))


def mzi_single_photon_visibility(r: float) -> float:
    """Direct-port fringe visibility of a Mach-Zehnder interferometer with
    two couplers of intensity reflectivity r: 2 r t / (r^2 + t^2), t = 1 - r."""
    t = 1.0 - r
    return 2.0 * r * t / (r * r + t * t)


def _drive_rabi(scenario: dict) -> float:
    drive = scenario["drive"]
    if drive["rabi_rad_ns"] is not None:
        return drive["rabi_rad_ns"]
    return 2.0 * math.pi * drive["rabi_ghz"]


class Oracle:
    """Expected values for one workload; `problems` lists what an op got wrong."""

    def __init__(self, golden: dict | None = None, config: str | None = None):
        self.golden = json.loads(GOLDEN.read_text()) if golden is None else golden
        # Scenario values the workload's config file sets; every manifest must echo them.
        self.overrides = json.loads(Path(config).read_text()) if config else {}
        self._rabi_cache: dict[tuple, float] = {}

    def rabi_mean(self, scenario: dict) -> float:
        """Expected photons per pulse from the deterministic Bloch ODE."""
        from cohscat.emitter import EmitterParams
        from cohscat.pulsed import rabi_curve

        em, train = scenario["emitter"], scenario["pulse_train"]
        key = (em["t1_ns"], em["t2_ns"], em["detuning_rad_ns"], train["pulse_area_pi"],
               train["pulse_fwhm_ns"], train["shape"])
        if key not in self._rabi_cache:
            params = EmitterParams(t1=key[0], t2=key[1], detuning=key[2])
            [(_, mean)] = rabi_curve(params, [key[3] * math.pi], key[4], shape=key[5])
            self._rabi_cache[key] = mean
        return self._rabi_cache[key]

    def expectations(self, op: str, manifest: dict, report: dict):
        """(label, got, want, tolerance) for every oracle check of `op`."""
        res, sc = manifest["results"], manifest["scenario"]
        em = sc["emitter"]
        out = []
        if op == "fig1d":
            out.append(("emission/laser", res["emission_to_laser_at_knee"], sc["gating"]["contrast"],
                        1e-6 * sc["gating"]["contrast"]))
        elif op == "fig2a":
            out.append(("g2(0)", res["g2_zero_ideal"], 0.0, 1e-9))
        elif op == "fig2b":
            want = rrs_fraction_closed_form(
                em["t1_ns"], em["t2_ns"], em["detuning_rad_ns"], _drive_rabi(sc)
            )
            out.append(("coherent_weight", res["coherent_weight"], want, 1e-9))
        elif op == "fig2c":
            out.append(("max frac 0.3", res["max_frac_ratio0.3"], 0.3, 1e-9))
            out.append(("max frac 1.0", res["max_frac_ratio1.0"], 1.0, 1e-9))
        elif op == "fig2e":
            out.append(("peak visibility", res["peak_visibility_ratio1.0"], 0.89, 1e-6))
        elif op == "fig3d":
            out.append(("visibility", res["visibility"], mzi_single_photon_visibility(res["r1"]), 1e-6))
        elif op == "fig3e":
            out.append(("frequency ratio", res["frequency_ratio"], 2.0, 1e-6))
        if op in ("fig3b", "fig3c"):
            [stream] = report["streams"]
            se = math.sqrt(stream["var"] / stream["pulses"])
            out.append(("photons/pulse", stream["mean"], self.rabi_mean(sc), Z_MAX * se))
        if op == "fig3b":
            out.append(("manifest mean_per_pulse", res["mean_per_pulse"],
                        stream["tags"] / stream["pulses"], 1e-12))
        elif op == "fig3c":
            [h] = report["hom"]
            out.append(("overlap_raw", h["overlap_raw"], sc["source_model"]["overlap"],
                        Z_MAX * h["overlap_err"]))
        return out

    def problems(self, op: str, manifest: dict, report: dict, seed: int) -> list[str]:
        sc = manifest["scenario"]
        if sc["seed"] != seed:
            return [f"seed {sc['seed']} != {seed}"]
        for block, values in self.overrides.items():
            for key, want in values.items():
                if sc[block][key] != want:
                    return [f"scenario {block}.{key} = {sc[block][key]!r}, config says {want!r}"]
        streams = 1 if op in ("fig3b", "fig3c") else 0
        if len(report["streams"]) != streams or len(report["hom"]) != (op == "fig3c"):
            return [f"saw {len(report['streams'])} photon streams and "
                    f"{len(report['hom'])} interference reports"]
        found = [
            f"{label}: {got!r} vs oracle {want!r} (tolerance {tol:.3g})"
            for label, got, want, tol in self.expectations(op, manifest, report)
            if not abs(got - want) <= tol
        ]
        golden = self.golden[op]
        if report["csv_rows"] != golden["csv_rows"]:
            found.append(f"csv rows {report['csv_rows']} != {golden['csv_rows']}")
        for key, want in golden.get("results", {}).items():
            got = manifest["results"].get(key)
            if not isinstance(got, (int, float)) or not abs(got - want) <= GOLDEN_RTOL * abs(want):
                found.append(f"{key}: {got!r} vs seed value {want!r}")
        return found
