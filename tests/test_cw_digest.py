"""CW outputs of the default scenario against a stored digest.

``data/cw_digest.json`` holds, for each command below, its manifest results
and every 100th data row of its CSV. The test reruns the command and
compares at 1e-10 relative with a 1e-12 absolute floor: a refactor that
keeps the numbers passes whatever kernel or summation order it uses, and
one that moves them fails. Rewrite the digest only for a deliberate change
of the outputs:

    PYTHONPATH=src python tests/test_cw_digest.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cohscat import cli

DIGEST = Path(__file__).parent / "data" / "cw_digest.json"
COMMANDS = {
    "fig2a": ["fig", "fig2a"],
    "fig2b": ["fig", "fig2b"],
    "fig2d": ["fig", "fig2d"],
    "fig2e": ["fig", "fig2e"],
    "sim g1": ["sim", "g1"],
    "sim g2": ["sim", "g2"],
    "sim hom-cw": ["sim", "hom-cw"],
    "sim spectrum": ["sim", "spectrum"],
}
_ROW_STRIDE = 100
_RTOL = 1e-10
_ATOL = 1e-12


def digest_of(argv, out: Path) -> dict:
    """The manifest results, the CSV header and every _ROW_STRIDE-th data
    row of one run into ``out``."""
    assert cli.main([*argv, "--out", str(out)]) == 0
    [csv] = out.glob("*.csv")
    lines = csv.read_text().splitlines()
    return {
        "results": json.loads((out / "manifest.json").read_text())["results"],
        "header": lines[0],
        "n_rows": len(lines) - 1,
        "rows": lines[1::_ROW_STRIDE],
    }


def _floats(rows) -> np.ndarray:
    return np.array([[float(cell) for cell in row.split(",")] for row in rows])


def _flat(value, path=""):
    """{dotted key: leaf} of a nested manifest results dict."""
    if isinstance(value, dict):
        return {k: v for key, sub in value.items() for k, v in _flat(sub, f"{path}.{key}").items()}
    return {path: value}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cw_outputs_match_digest(name, tmp_path):
    want = json.loads(DIGEST.read_text())[name]
    got = digest_of(COMMANDS[name], tmp_path / "out")
    assert got["header"] == want["header"]
    assert got["n_rows"] == want["n_rows"]
    np.testing.assert_allclose(_floats(got["rows"]), _floats(want["rows"]), rtol=_RTOL, atol=_ATOL)
    got_results, want_results = _flat(got["results"]), _flat(want["results"])
    assert got_results.keys() == want_results.keys()
    for key, expected in want_results.items():
        if isinstance(expected, str):
            assert got_results[key] == expected, key
        else:
            np.testing.assert_allclose(got_results[key], expected, rtol=_RTOL, atol=_ATOL, err_msg=key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digest = {name: digest_of(argv, Path(tmp) / name.replace(" ", "_")) for name, argv in COMMANDS.items()}
    DIGEST.parent.mkdir(exist_ok=True)
    DIGEST.write_text(json.dumps(digest, indent=1) + "\n")
    print(f"wrote {DIGEST}", file=sys.stderr)
