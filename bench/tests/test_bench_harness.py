"""Tests of the benchmark harness itself: span arithmetic, tracing install,
output checks and the workload property the pulsed workloads are built on."""

import json
import math

import numpy as np
import pytest

from bench import checks, run, spans
from cohscat import fock, hom, pulsed
from cohscat.correlations import g2
from cohscat.hom import HomSetup
from cohscat.scenario import Scenario


def _span(sid, parent, name, t0, t1):
    return (sid, parent, name, t0, t1, None)


def test_self_time_subtracts_covered_child_intervals():
    recorded = [
        _span(0, -1, "hom.hom_pair", 0.0, 10.0),
        _span(1, 0, "correlations.g2", 1.0, 3.0),
        _span(2, 0, "correlations.g2", 2.0, 4.0),  # overlaps its sibling
        _span(3, 0, "correlations.g1", 9.0, 12.0),  # runs past the parent
        _span(4, 1, "emitter.steady_state", 1.5, 2.5),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_nested_span_gets_parent_and_self_time():
    params = Scenario().emitter.resolve()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        hom.hom_pair(params, 5.2, HomSetup(delay=10.4), np.linspace(-25.0, 25.0, 201))
    finally:
        uninstall()
    assert not hasattr(hom.hom_pair, "__wrapped__")
    assert hom.g2 is g2 and not hasattr(g2, "__wrapped__")

    recorded = tracer.spans
    names = [s[2] for s in recorded]
    assert names[0] == "hom.hom_pair"
    g2_spans = [s for s in recorded if s[2] == "correlations.g2"]
    assert len(g2_spans) == 6
    for s in g2_spans:
        assert recorded[s[1]][2] == "hom.hom_g2"
        assert recorded[recorded[s[1]][1]][2] == "hom.hom_pair"
    own = spans.self_times(recorded)
    for s in recorded:
        kids = [c for c in recorded if c[1] == s[0]]
        expected = (s[4] - s[3]) - sum(c[4] - c[3] for c in kids)
        assert own[s[0]] == pytest.approx(expected, abs=1e-12)
    totals = spans.tally(recorded)
    assert totals["correlations.taus"] == 8 * 201  # six g2 and two g1 calls
    assert totals["hom.calls"] == 3


def _multi_frac(config):
    scenario = Scenario.from_json(config) if config else Scenario()
    params, train = scenario.emitter.resolve(), scenario.pulse_train.resolve(n_pairs=20000)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        pulsed.simulate_stream(params, train, seed=7)
    finally:
        uninstall()
    totals = spans.tally(tracer.spans)
    assert totals["pulsed.pairs"] == 20000
    return spans.derive({**totals, "wall_s": 1.0})["pulsed.multi_frac"]


def test_multi_frac_separates_pulsed_workloads():
    assert _multi_frac(None) == pytest.approx(0.021, abs=0.005)
    assert _multi_frac(str(run.BENCH / "dense.json")) == pytest.approx(0.42, abs=0.02)


def test_closed_form_oracles_match_library():
    for r in (0.5, 0.6, 0.8, 0.95):
        assert checks.mzi_single_photon_visibility(r) == pytest.approx(fock.single_photon_visibility(r))
    params = Scenario().emitter.resolve()
    from cohscat.emitter import rrs_fraction

    for rabi in (0.0, 1.0, 2.0 * math.pi * 0.83):
        assert checks.rrs_fraction_closed_form(params.t1, params.t2, 0.0, rabi) == pytest.approx(
            rrs_fraction(params, rabi), rel=1e-12
        )


def test_wrong_oracle_value_fails_the_op(tmp_path):
    good = checks.Oracle()
    wrong_golden = json.loads(json.dumps(good.golden))
    wrong_golden["fig1d"]["results"]["power_knee_nw"] *= 1.0 + 1e-5
    wrong = checks.Oracle(golden=wrong_golden)

    def fig1d(oracle, out):
        return run.run_op(oracle, "fig1d", ["fig", "fig1d"], 12345, None, False, out)

    passed = fig1d(good, tmp_path / "a")
    assert passed["problems"] == []
    assert passed["setup_s"] > 0 and passed["wall_s"] > 0
    failed = fig1d(wrong, tmp_path / "b")
    assert len(failed["problems"]) == 1 and "power_knee_nw" in failed["problems"][0]
