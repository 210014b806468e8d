"""Does a change keep every bit? One sha256 over perfbench's workloads.

    python3 acceptance/same_bits.py [--seed 5] [--units 4] [--against DIR]

Runs ``--units`` units of each workload of ``perfbench/workloads.py``
(``bri-train``, ``mdd-train``, ``infer-frame``) at ``--seed``, untimed and
without warm-up, in one process with one BLAS thread, as perfbench does,
and in a temporary directory. It prints one sha256 over each workload's
``Outputs.comparable()`` (every loss, frame digest and PSNR) and, for the
two training workloads, the weights' ``store.checksum()`` after the last
unit. Run it in two checkouts, a change and its parent: when the change
keeps every bit, the two lines are equal. ``--against DIR`` does both: it
runs ``DIR/acceptance/same_bits.py`` at the same ``--seed`` and ``--units``
in a subprocess, which imports ``DIR``'s own ``src``, prints that digest and
this checkout's, and exits 1 when they differ. 4 units take about 3 s on a
2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """perfbench's module ``name``, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def digest(seed: int, units: int) -> str:
    """sha256 over ``units`` units of every workload at ``seed``."""
    wl = load("workloads")
    h = hashlib.sha256()
    for name, workload in wl.WORKLOADS.items():
        out = wl.Outputs()
        with tempfile.TemporaryDirectory() as tmp:
            state = workload.setup(seed, Path(tmp))
            for i in range(units):
                workload.run_unit(state, i, out)
        h.update(name.encode())
        h.update(json.dumps(out.comparable(), sort_keys=True).encode())
        if isinstance(state, wl.Trainer):
            h.update(state.model.store.checksum().encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--units", type=int, default=4, help="units of each workload")
    ap.add_argument("--against", metavar="DIR",
                    help="another checkout: compare its digest with this one's")
    args = ap.parse_args(argv)
    if args.units < 1:
        ap.error("--units must be at least 1")
    theirs = None
    if args.against is not None:
        # the other checkout runs first, in a process of its own
        proc = subprocess.run(
            [sys.executable, str(Path(args.against) / "acceptance" / "same_bits.py"),
             "--seed", str(args.seed), "--units", str(args.units)],
            capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        theirs = proc.stdout.split()[-1]
    bench = load("run")
    bench.set_thread_caps()
    bench.import_program()
    mine = digest(args.seed, args.units)
    if theirs is None:
        print(mine)
        return 0
    print(f"{mine}  {PERFBENCH.parent}")
    print(f"{theirs}  {Path(args.against).resolve()}")
    return 0 if mine == theirs else 1


if __name__ == "__main__":
    sys.exit(main())
