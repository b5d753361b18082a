import math
import signal

import numpy as np
import pytest

from cohscat import _text
from cohscat._svg import _ticks, render_lines
from conftest import assert_same_text, render_lines_per_point

NAN, INF = math.nan, math.inf
_WIDE = np.logspace(-9, 12, 400)
_INT64 = np.iinfo(np.int64)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 9.99999999999995e-5, 99999999999.95, 999999999999.5, INF, NAN, -INF]

CASES = {
    "non_finite": {
        "a": ([0.0, 1.0, NAN, 3.0, INF, 5.0], [1.0, NAN, 2.0, -INF, 4.0, 0.5]),
        "b": (np.arange(6.0), np.linspace(-1.0, 1.0, 6)),
    },
    "constant": {"flat": (np.linspace(0.0, 1.0, 7), np.full(7, 2.5))},
    "single_point": {"p": ([3.0], [4.0])},
    "integer_lists": {"i": ([1, 2, 3, 4], [10, 20, 15, 5]), "j": ([1, 2, 3, 4], [0, 1, 0, 1])},
    "all_nan": {"nan": ([NAN, NAN], [NAN, NAN])},
    "wide_range": {"w": (_WIDE, _WIDE[::-1] * np.cos(np.arange(400)))},
    # Pixels land on the .x5 rounding ties, where the last bit decides the text.
    "half_pixel_steps": {"h": (np.arange(12601) * 0.05, np.arange(12601) * 0.03 - 7.0)},
    "edges_and_signed_zeros": {"e": (_EDGES, _EDGES[::-1])},
    "subnormals": {"s": (np.append(np.arange(8) * 5e-324, 1.0), np.append(np.linspace(-1e-310, 1e-310, 8), 2.0))},
    "float32": {"f": (np.linspace(-3, 3, 301, dtype=np.float32), np.sin(np.arange(301, dtype=np.float32)))},
    "int64_extremes": {"i": (np.array([_INT64.min, -1, 0, 1, _INT64.max]), np.array([0, _INT64.max, 5, -7, 1]))},
    "bool": {"b": (np.array([True, False, True, True]), np.array([False, True, True, False]))},
    "seven_series": {f"s{k}": (np.arange(5.0), k * np.arange(5.0) ** 0.5) for k in range(7)},
}


@pytest.mark.parametrize("scatter", [False, True], ids=["line", "scatter"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_matches_per_point_oracle(tmp_path, case, scatter):
    kwargs = dict(title="t", xlabel="x", ylabel="y", scatter=scatter)
    render_lines(tmp_path / "new.svg", CASES[case], **kwargs)
    render_lines_per_point(tmp_path / "oracle.svg", CASES[case], **kwargs)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()


def test_svg_matches_per_point_oracle_on_random_data(tmp_path, rng):
    series = {
        "walk": (np.sort(rng.normal(size=5000)) * 1e3, np.cumsum(rng.normal(size=5000))),
        "noise": (rng.uniform(-2e3, 2e3, 5000), rng.exponential(size=5000) * 1e-4),
    }
    render_lines(tmp_path / "new.svg", series)
    render_lines_per_point(tmp_path / "oracle.svg", series)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()


def _pixel_edges():
    """Pixel values around the .x5 rounding ties (k/10 + 0.05, the exact
    ties odd/4, and their neighbours), signed zeros, the 1e5 edge of the
    column-wise path, subnormals and non-finite values."""
    ties = np.concatenate([np.arange(-20000, 20000) / 10.0 + 0.05, np.arange(-4001, 4001, 2) / 4.0])
    near = np.concatenate([ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)])
    edges = [0.0, -0.0, -0.04, -0.05, 0.05, 0.25, 99999.94, 99999.95, 99999.96, 1e5, -1e5, 5e-324, -5e-324]
    return np.concatenate([near, edges, [INF, -INF, NAN]])


@pytest.mark.parametrize(
    "x",
    [[0.0, 3.5e-323], [1.0, 1.0 + 2.2e-16]],
    ids=["subnormal-span", "span-below-half-an-ulp"],
)
def test_degenerate_axis_spans_render(tmp_path, x):
    # A subnormal span underflows the tick magnitude to 0; on a span below
    # half an ulp of its ends a tick step cannot advance. An alarm turns a
    # tick loop that never ends into a failure.
    def timeout(signum, frame):
        raise TimeoutError("tick loop did not end")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        ticks = _ticks(min(x), max(x))
        render_lines(tmp_path / "new.svg", {"s": (x, [0.0, 1.0])})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert 1 <= len(ticks) <= 8
    render_lines_per_point(tmp_path / "oracle.svg", {"s": (x, [0.0, 1.0])})
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()


def test_pixel_text_matches_python_formatting():
    values = _pixel_edges()
    for column in (values, values.astype(np.float32)):
        expected = "\n".join(map("{:.1f}".format, column.tolist())) + "\n"
        assert_same_text(_text.rows([_text.pixels(column), b"\n"]), expected)


def test_pixel_text_matches_python_formatting_per_decade(rng):
    # 1e5 values in each decade that reaches the column-wise path, 1e2 in
    # every other decade from 1e-300 to 1e300 (Python's formatter writes
    # those, at up to 30 us a value for the longest).
    window = range(-3, 6)
    for exponent in range(-300, 301):
        count = 10**5 if exponent in window else 10**2
        values = rng.uniform(1.0, 10.0, count) * 10.0**exponent
        values[::2] *= -1.0
        expected = "\n".join(map("{:.1f}".format, values.tolist())) + "\n"
        assert_same_text(_text.rows([_text.pixels(values), b"\n"]), expected)
