"""Regenerate ``benchmarks/reference.json``, the values the benchmark checks
every operation against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 benchmarks/make_reference.py

It computes, with the workloads' own set-up code:

- ``golden``: the criterion-9 point at steps 0.1 (the golden value) and 0.2
  (used by the one-point smoke test);
- ``scan``: the full 20x20 criterion-10 (tau, T) lattice at s = 3 fs;
- ``readme``: the README example through ``simulate run`` on the 61-point
  tau lattice 0..30 fs, from which operations take their tau points;
- ``oracle``: ``crosscheck.run_benchmark("three-level")`` and the order norms
  of the three ``evolve_benchmark_kets`` states.

Each lattice point is computed independently of the others, so a value taken
from a reference lattice equals the value of a run over any sub-lattice.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from homspec_bench import workloads as wl  # noqa: E402
from homspec_bench.runner import environment  # noqa: E402


def main() -> int:
    workers = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp:
        ctx = wl.Context(out_dir=tmp, workers=workers, reference={})
        golden = {repr(step): wl.golden_operation(step, ctx) for step in (0.1, 0.2)}
        everything = np.arange(wl.SCAN_AXIS.size)
        scan_grid, _ = wl.scan_operation((everything, everything), ctx)
        inputs = wl.readme_draw(np.random.default_rng(0), ctx,
                                strata=wl.README_TAU.size)
        rc, path = wl.readme_operation(inputs, ctx)
        if rc != 0:
            raise SystemExit(f"simulate run failed with exit code {rc}")
        readme = wl.SignalGrid.load(path)
        result, norms = wl.oracle_operation(None, ctx)
    reference = {
        "generated": {
            "command": "python3 benchmarks/make_reference.py",
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "environment": environment(workers),
        },
        "golden": golden,
        "scan": {"tau_fs": wl.SCAN_AXIS.tolist(), "T_fs": wl.SCAN_AXIS.tolist(),
                 "s_fs": wl.SCAN_S, "values": scan_grid.values[:, :, 0].tolist()},
        "readme": {"tau_fs": readme.tau_values.tolist(),
                   "values": readme.values[:, 0, 0].tolist()},
        "oracle": {"pipeline": result["pipeline"].tolist(),
                   "brute_force": result["brute_force"].tolist(),
                   "max_rel_dev": result["max_rel_dev"],
                   "order_norms": norms.tolist()},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
