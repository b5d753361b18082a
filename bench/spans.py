"""Span tracing of the cohscat layers, done from outside the package.

`install` wraps every public function of each layer module (and, for the
`scenario` module, the public methods of its classes) so that each call
records a span: name, start, end and the span that was open when it began.
The wrapper replaces the function in every cohscat namespace that holds it,
for example both `cohscat.pulsed.simulate_stream` and
`cohscat.cli.simulate_stream`, so nested calls find their parent whichever
name the caller used.

Only public names are wrapped. Private helpers such as the Monte Carlo
pulse-window loop are implementation details that optimisations delete or
split; their time shows up as self time of the public function above them.

Spans are kept in memory and handed out at the end (`Tracer.spans`). The
rest of this module turns span lists into additive per-layer totals
(`tally`) and those totals into the per-layer metrics (`derive`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "cohscat"
LAYERS = ("scenario", "cli", "_svg", "emitter", "correlations", "spectrum", "hom", "pulsed", "fock")
# Modules whose classes form the layer's API; elsewhere classes are data
# types whose methods run per sample (DriveField.omega inside an ODE RHS).
METHOD_LAYERS = ("scenario",)
ANALYSIS = ("pulsed.hbt_analyze", "pulsed.pulsed_hom", "pulsed.coincidence_histogram")


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_stream(fn, args, kwargs, result):
    counts = result.counts_per_pulse()
    return {
        "pairs": int(result.train.n_pairs),
        "pulses": int(counts.size),
        "tags": int(result.n_tags),
        "multi": int((counts >= 2).sum()),
    }


# Work counters recorded at the layer boundary: qualified name ->
# (function, args, kwargs, result) -> {counter: value}.
COUNTERS = {
    "correlations.g1": lambda fn, a, k, r: {"taus": len(_bound(fn, a, k, "tau_grid"))},
    "correlations.g2": lambda fn, a, k, r: {"taus": len(_bound(fn, a, k, "tau_grid"))},
    "pulsed.rabi_curve": lambda fn, a, k, r: {"points": len(r)},
    "fock.mzi_fringes": lambda fn, a, k, r: {"phi": len(r.phi)},
    "pulsed.simulate_stream": _count_stream,
}


class Tracer:
    """In-memory span recorder.

    Each span is a tuple (id, parent id or -1, name, start, end, counters
    or None); ids are list positions, so a parent precedes its children.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, None)
            if counter is not None:
                spans[sid] = (sid, parent, name, t0, t1, counter(fn, args, kwargs, result))
            return result

        return traced


def rebind(replacements: dict) -> list:
    """Replace objects in every loaded cohscat module namespace.

    `replacements` maps id(original) -> (original, replacement). Returns
    the (module, attribute, original) triples needed to undo it.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))
    return undo


def _public_functions(module):
    for attr, obj in list(vars(module).items()):
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a callable that undoes it."""
    replacements = {}
    undo = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, fn in _public_functions(module):
            replacements[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
        if layer not in METHOD_LAYERS:
            continue
        for cls_name, cls in list(vars(module).items()):
            if cls_name.startswith("_") or not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{layer}.{cls_name}.{attr}"
                if inspect.isfunction(raw):
                    setattr(cls, attr, tracer.wrap(name, raw))
                elif isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    continue
                undo.append((cls, attr, raw))
    undo.extend(rebind(replacements))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for sid, _, _, t0, t1, _ in spans:
        covered = 0.0
        reach = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def _has_ancestor(spans, sid: int, name: str) -> bool:
    parent = spans[sid][1]
    while parent >= 0:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False


def tally(spans) -> dict[str, float]:
    """Additive per-layer totals of one span list (one op)."""
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "calls")}
    extra = (
        "pulsed.simulate_stream.self_s",
        "pulsed.simulate_stream.total_s",
        "pulsed.analysis.self_s",
        "pulsed.rabi_curve.self_s",
        "pulsed.rabi_points",
        "pulsed.pairs",
        "pulsed.pulses",
        "pulsed.tags",
        "pulsed.multi",
        "fock.phi_points",
        "fock.element_calls",
        "correlations.taus",
        "spectrum.fft_points",
        "hom.irf_evals",
    )
    out.update({key: 0.0 for key in extra})
    for span, own in zip(spans, self_times(spans)):
        sid, _, name, t0, t1, counts = span
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        counts = counts or {}
        if name == "pulsed.simulate_stream":
            out["pulsed.simulate_stream.self_s"] += own
            out["pulsed.simulate_stream.total_s"] += t1 - t0
            for key in ("pairs", "pulses", "tags", "multi"):
                out[f"pulsed.{key}"] += counts[key]
        elif name in ANALYSIS:
            out["pulsed.analysis.self_s"] += own
        elif name == "pulsed.rabi_curve":
            out["pulsed.rabi_curve.self_s"] += own
            out["pulsed.rabi_points"] += counts["points"]
        elif name == "fock.mzi_fringes":
            out["fock.phi_points"] += counts["phi"]
        elif name == "fock.apply_element":
            out["fock.element_calls"] += 1
        elif name in ("correlations.g1", "correlations.g2"):
            out["correlations.taus"] += counts["taus"]
            if name == "correlations.g1" and _has_ancestor(spans, sid, "spectrum.emission_spectrum"):
                out["spectrum.fft_points"] += counts["taus"]
        elif name == "hom.hom_visibility" and _has_ancestor(
            spans, sid, "hom.solve_timing_for_visibility"
        ):
            out["hom.irf_evals"] += 1
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def derive(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from summed tallies; `totals["wall_s"]` is the
    traced compute time. Rates and shares of a layer that never ran read 0."""
    hidden = ("wall_s", "pulsed.multi", "pulsed.pulses", "pulsed.simulate_stream.total_s")
    out = {key: value for key, value in totals.items() if key not in hidden}
    out["pulsed.multi_frac"] = _ratio(totals["pulsed.multi"], totals["pulsed.pulses"])
    out["pulsed.pairs_per_s"] = _ratio(totals["pulsed.pairs"], totals["pulsed.simulate_stream.total_s"])
    out["pulsed.simulate_stream.share"] = _ratio(totals["pulsed.simulate_stream.self_s"], totals["wall_s"])
    out["fock.us_per_phi"] = 1e6 * _ratio(totals["fock.self_s"], totals["fock.phi_points"])
    out["correlations.us_per_tau"] = 1e6 * _ratio(totals["correlations.self_s"], totals["correlations.taus"])
    return out
