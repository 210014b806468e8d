"""Does a change keep every bit? One sha256 per perfbench workload, and one
over them all.

    python3 acceptance/same_bits.py [--seed 5] [--units 4] [--against DIR]

Runs ``--units`` units of each workload of ``perfbench/workloads.py``
(``bri-train``, ``mdd-train``, ``infer-frame``) at ``--seed``, untimed and
without warm-up, in one process with one BLAS thread, as perfbench does,
and in a temporary directory. Each workload's sha256 covers its
``Outputs.comparable()`` (every loss, frame digest and PSNR) and, for the
two training workloads, the weights' ``store.checksum()`` after the last
unit; the combined one, on the line ``all``, covers the same bytes of every
workload in turn. It prints one ``name digest`` line each. Run it in two
checkouts, a change and its parent: where the change keeps every bit, the
lines are equal. ``--against DIR`` does both: it runs this script on
``DIR``'s own ``perfbench`` and ``src`` at the same ``--seed`` and
``--units`` in a subprocess, prints ``name`` this checkout's digest, DIR's
and ``same`` or ``differs`` for each line, and exits 1 when any differs. A
workload that differs also gets the largest relative difference between
the two checkouts of any step's loss (``max_rel_loss``, the training
workloads) or of any frame's PSNR (``max_rel_psnr``, ``infer-frame``), or
``-`` where the two ran other numbers of them: a change that moves the
numbers by rounding alone shows it there. 4 units take about 3 s on a
2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, root: Path = ROOT):
    """perfbench's module ``name`` in checkout ``root``, loaded from its file
    as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  root / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def digests(seed: int, units: int, root: Path = ROOT, numbers: dict = None) -> dict:
    """sha256 over ``units`` units of each workload of checkout ``root`` at
    ``seed``, by name, and over all of them in turn, under ``all``. A
    ``numbers`` dict gets, by name, ``("loss", every step's loss)`` for a
    training workload and ``("psnr", every frame's PSNR)`` for inference."""
    wl = load("workloads", root)
    every = hashlib.sha256()
    out = {}
    for name, workload in wl.WORKLOADS.items():
        outputs = wl.Outputs()
        with tempfile.TemporaryDirectory() as tmp:
            state = workload.setup(seed, Path(tmp))
            for i in range(units):
                workload.run_unit(state, i, outputs)
        h = hashlib.sha256()
        for part in (name, json.dumps(outputs.comparable(), sort_keys=True),
                     *([state.model.store.checksum()] if isinstance(state, wl.Trainer) else [])):
            h.update(part.encode())
            every.update(part.encode())
        out[name] = h.hexdigest()
        if numbers is not None:
            numbers[name] = (("loss", outputs.losses) if outputs.losses else
                             ("psnr", [outputs.psnr[t] for t in sorted(outputs.psnr)]))
    out["all"] = every.hexdigest()
    return out


def max_rel(mine: list, theirs: list):
    """Largest |a - b| / |b| over paired numbers, or None where the lists
    do not pair."""
    if len(mine) != len(theirs) or not mine:
        return None
    return max(abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf)
               for a, b in zip(mine, theirs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--units", type=int, default=4, help="units of each workload")
    ap.add_argument("--against", metavar="DIR",
                    help="another checkout: compare its digests with this one's")
    # the checkout whose perfbench and src run, and JSON output: --against's
    # subprocess
    ap.add_argument("--root", type=Path, default=ROOT, help=argparse.SUPPRESS)
    ap.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.units < 1:
        ap.error("--units must be at least 1")
    theirs = None
    if args.against is not None:
        # the other checkout runs first, in a process of its own
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--root", args.against,
             "--seed", str(args.seed), "--units", str(args.units), "--json"],
            capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        theirs = json.loads(proc.stdout)
    bench = load("run", args.root)
    bench.set_thread_caps()
    bench.import_program()
    numbers = {}
    mine = digests(args.seed, args.units, args.root, numbers)
    if args.json:
        print(json.dumps({"digests": mine, "numbers": numbers}))
        return 0
    if theirs is None:
        for name, d in mine.items():
            print(f"{name:<12} {d}")
        return 0
    print(f"# {ROOT} against {Path(args.against).resolve()}")
    for name, d in mine.items():
        other = theirs["digests"].get(name)
        line = f"{name:<12} {d} {other or '-':<64} {'same' if other == d else 'differs'}"
        if other != d and name in numbers:
            kind, values = numbers[name]
            rel = max_rel(values, theirs["numbers"].get(name, (kind, []))[1])
            line += f" max_rel_{kind} {'-' if rel is None else f'{rel:.3g}'}"
        print(line)
    return 0 if mine == theirs["digests"] else 1


if __name__ == "__main__":
    sys.exit(main())
