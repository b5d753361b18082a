import math

import numpy as np
import pytest

from cohscat._svg import render_lines
from conftest import render_lines_per_point

NAN, INF = math.nan, math.inf
_WIDE = np.logspace(-9, 12, 400)

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
