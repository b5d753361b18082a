"""Command outputs of the default scenario against a stored digest.

``data/cw_digest.json`` holds, for each command below, its manifest results
and some data rows of its CSV: every 100th, which for the long correlation
traces includes the tau = 0 row, and about 40 evenly strided ones, so that
short outputs are pinned densely too. The test reruns the command and
compares numbers at 1e-10 relative with a 1e-12 absolute floor, and text
cells (such as ``steady.csv``'s labels) as text: a refactor that keeps the
numbers passes whatever kernel or summation order it uses, and one that
moves them fails. The Monte Carlo commands run at 5000 pairs on one
thread. The digest cases also rerun under the OpenBLAS kernels of other
cores, so the outputs are checked not to depend on the machine. Rewrite
the digest only for a deliberate change of the outputs:

    PYTHONPATH=src python tests/test_cw_digest.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cohscat import cli

DIGEST = Path(__file__).parent / "data" / "cw_digest.json"
_PULSED = ["--pairs", "5000", "--threads", "1"]
COMMANDS = {
    "fig1d": ["fig", "fig1d"],
    "fig2a": ["fig", "fig2a"],
    "fig2b": ["fig", "fig2b"],
    "fig2d": ["fig", "fig2d"],
    "fig2c": ["fig", "fig2c"],
    "fig2e": ["fig", "fig2e"],
    "fig3d": ["fig", "fig3d"],
    "fig3e": ["fig", "fig3e"],
    "sim steady": ["sim", "steady"],
    "sim g1": ["sim", "g1"],
    "sim g2": ["sim", "g2"],
    "sim hom-cw": ["sim", "hom-cw"],
    "sim spectrum": ["sim", "spectrum"],
    "sim rabi": ["sim", "rabi"],
    "sim noon single": ["sim", "noon", "--input", "single"],
    "sim noon dual": ["sim", "noon", "--input", "dual"],
    "sim stream": ["sim", "stream", *_PULSED],
    "sim hbt": ["sim", "hbt", *_PULSED],
    "sim hom-pulsed": ["sim", "hom-pulsed", *_PULSED],
}
_EVERY = 100  # every _EVERY-th data row is kept
_ROWS = 40  # and about _ROWS more, evenly strided
_RTOL = 1e-10
_ATOL = 1e-12


def digest_of(argv, out: Path) -> dict:
    """The manifest results, the CSV header and the data rows of one run into
    ``out`` whose index is a multiple of _EVERY or of a stride that keeps
    about _ROWS of them."""
    assert cli.main([*argv, "--out", str(out)]) == 0
    [csv] = out.glob("*.csv")
    header, *data = csv.read_text().splitlines()
    stride = -(-len(data) // _ROWS)
    return {
        "results": json.loads((out / "manifest.json").read_text())["results"],
        "header": header,
        "n_rows": len(data),
        "rows": [row for i, row in enumerate(data) if i % _EVERY == 0 or i % stride == 0],
    }


def _cells(rows) -> tuple[np.ndarray, list[str]]:
    """The numeric cells of CSV rows as floats, and the others as text."""
    numbers, text = [], []
    for cell in (cell for row in rows for cell in row.split(",")):
        try:
            numbers.append(float(cell))
        except ValueError:
            text.append(cell)
    return np.array(numbers), text


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
    (got_numbers, got_text), (want_numbers, want_text) = _cells(got["rows"]), _cells(want["rows"])
    assert got_text == want_text
    np.testing.assert_allclose(got_numbers, want_numbers, rtol=_RTOL, atol=_ATOL)
    got_results, want_results = _flat(got["results"]), _flat(want["results"])
    assert got_results.keys() == want_results.keys()
    for key, expected in want_results.items():
        if isinstance(expected, str):
            assert got_results[key] == expected, key
        else:
            np.testing.assert_allclose(got_results[key], expected, rtol=_RTOL, atol=_ATOL, err_msg=key)


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_digest_holds_under_other_openblas_kernels(coretype):
    # The digest cases, and only they, rerun in a fresh process whose
    # OpenBLAS runs another core's kernels (OPENBLAS_CORETYPE, which needs
    # a DYNAMIC_ARCH build; OPENBLAS_VERBOSE=2 reports the core it took).
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH: {blas.get('name')}")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2")
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True)
    if f"Core: {coretype}" not in probe.stdout + probe.stderr:
        pytest.skip(f"OpenBLAS does not take core {coretype}: {(probe.stdout + probe.stderr).strip()!r}")
    del env["OPENBLAS_VERBOSE"]
    nested = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "tests/test_cw_digest.py::test_cw_outputs_match_digest"]
    run = subprocess.run(nested, env=env, capture_output=True, text=True, cwd=Path(__file__).parents[1])
    assert run.returncode == 0 and f"{len(COMMANDS)} passed" in run.stdout, run.stdout[-4000:] + run.stderr[-2000:]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digest = {name: digest_of(argv, Path(tmp) / name.replace(" ", "_")) for name, argv in COMMANDS.items()}
    DIGEST.parent.mkdir(exist_ok=True)
    DIGEST.write_text(json.dumps(digest, indent=1) + "\n")
    print(f"wrote {DIGEST}", file=sys.stderr)
