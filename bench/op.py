"""Run one cohscat CLI operation in this (fresh) interpreter and report on it.

Usage: python3 bench/op.py --out DIR [--trace] [--config FILE] -- <cohscat CLI arguments>

Prints one JSON line last on stdout:

- ready: time.monotonic() once `cohscat.cli` is imported and the scenario
  is loaded; the parent subtracts its own spawn stamp to get set-up time
- wall_s / cpu_s: perf_counter and process CPU time around `cli.main`
- peak_rss_mb: this process's peak resident set size
- code: the CLI's exit code
- csv_rows / bytes_written: what the operation left in its output directory
- streams / hom: statistics of the photon streams and pulsed-interference
  reports the operation produced, taken after the timed span
- spans: the span list when --trace is given, else null
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Probe:
    """Keeps references to the results of selected cohscat functions.

    The statistics are computed only after the timed span, so the probe
    costs one extra call frame per wrapped call.
    """

    NAMES = ("simulate_stream", "pulsed_hom")

    def __init__(self):
        self.results = {name: [] for name in self.NAMES}

    def install(self):
        from bench import spans
        from cohscat import pulsed

        replacements = {}
        for name in self.NAMES:
            fn = getattr(pulsed, name)
            replacements[id(fn)] = (fn, self._wrap(name, fn))
        spans.rebind(replacements)

    def _wrap(self, name, fn):
        store = self.results[name]

        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.append(result)
            return result

        return probed

    def report(self) -> dict:
        streams = []
        for stream in self.results["simulate_stream"]:
            counts = stream.counts_per_pulse()
            streams.append(
                {
                    "pulses": int(counts.size),
                    "tags": int(stream.n_tags),
                    "mean": float(counts.mean()),
                    "var": float(counts.var()),
                    "multi": int((counts >= 2).sum()),
                }
            )
        hom = [
            {"overlap_raw": float(r.aux["overlap_raw"]), "overlap_err": float(r.aux["overlap_err"])}
            for r in self.results["pulsed_hom"]
        ]
        return {"streams": streams, "hom": hom}


def _outputs(outdir: Path) -> tuple[int, int]:
    rows = size = 0
    for path in outdir.iterdir():
        size += path.stat().st_size
        if path.suffix == ".csv":
            with open(path) as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = [a for a in args.cli if a != "--"]
    if args.config:
        cli_argv += ["--config", args.config]
    cli_argv += ["--out", args.out]

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import cohscat.cli as cli
    from cohscat.scenario import Scenario

    scenario = Scenario.from_json(args.config) if args.config else Scenario()
    scenario.resolved_dict()
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from bench import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    probe = Probe()
    probe.install()

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    code = cli.main(cli_argv)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outdir = Path(args.out)
    rows, size = _outputs(outdir) if outdir.is_dir() else (0, 0)
    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "code": code,
        "csv_rows": rows,
        "bytes_written": size,
        "spans": tracer.spans if tracer else None,
        **probe.report(),
    }
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
