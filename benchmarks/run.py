"""homspec benchmark entry point.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/run.py --all [--seed <n>] [--seconds <s>]

Workloads: golden-point, scan-tau-T, readme-cli, oracle-crosscheck.  The
last line printed is the JSON result; details, the environment record and
(with --trace 1) the spans go to .bench_out/ at the repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "homspec", "__init__.py")):
        print(f"error: no homspec sources under {SRC}; run the benchmark "
              f"from a full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    from homspec_bench.runner import main

    sys.exit(main(sys.argv[1:]))
