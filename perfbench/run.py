"""Moblurf benchmark: bri-train, mdd-train and infer-frame.

One workload, as the command in BENCHMARK.json runs it:

    python3 perfbench/run.py --workload mdd-train --seed 3 --seconds 20 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) by name and unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 when any
correctness check fails.

Every workload, one process per workload and seed, with a combined table
(median and quartile spread over seeds when several are given) and a
results file:

    python3 perfbench/run.py [--seed 0 [1 ...]] [--seconds 20] [--trace 0|1] [--out FILE]

``--seconds`` fixes the number of timed units before the loop starts
(seconds / the workload's nominal unit time), so a seed always gives the same
outputs; a run takes about that long on the reference box. See
perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread: on the shared 2-vCPU reference box a second thread buys
# ~25 % on MDD steps but widens run-to-run spread
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def set_thread_caps() -> None:
    """Cap the BLAS pools; must run before NumPy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread caps must be set before NumPy loads")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path and check that the
    moblurf imported is the one built from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import moblurf
    if Path(moblurf.__file__).resolve().parent != src / "moblurf":
        raise ImportError(f"moblurf imported from {moblurf.__file__}, not {src}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; omit to run all")
    ap.add_argument("--seed", type=int, nargs="+", default=[0],
                    help="one seed per workload run; several only without --workload")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (all workloads); default "
                                  "perfbench/results/results-trace<N>.json")
    ap.add_argument("--row-out", help=argparse.SUPPRESS)  # one workload's row
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so temporary files are removed and
    # a running workload process is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    set_thread_caps()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import harness
    if args.workload is None:
        return harness.run_all(args)
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if len(args.seed) != 1:
        print("error: --workload takes exactly one --seed", file=sys.stderr)
        return 2
    args.seed = args.seed[0]
    return harness.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
