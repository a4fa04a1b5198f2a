"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    env PYTHONHASHSEED=0 python3 perfbench/run.py --workload wire-line --seed 1 --seconds 20 --trace 0

Workloads: ``wire-line``, ``sim-mesh-churn``, ``reef-loop`` (see README.md).
The program is imported from ``src/`` of the checkout the script sits in.
Human-readable lines (corrected and raw figures side by side) come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: personality(2) flag: map this process without address-space
#: randomization.  With randomization on, identical reef-loop runs fell
#: into a slow (~3,600 clicks/s) or a fast (~4,300) layout and stayed
#: there for the whole run; with it off they agreed within 4%.
ADDR_NO_RANDOMIZE = 0x0040000

#: Set in the environment of the re-executed process, so it never loops.
RELAUNCHED = "PERFBENCH_RELAUNCHED"


def _personality():
    """libc's personality(2), or None where there is none."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        function = libc.personality
    except (OSError, AttributeError):
        return None
    function.argtypes = [ctypes.c_ulong]
    function.restype = ctypes.c_int
    return function


def _pin_layout() -> bool:
    """Re-execute this script once with address randomization off for
    this process (and only this process).  Returns whether it is off.

    The hash seed is not pinned here: the command in BENCHMARK.json
    starts the interpreter with ``PYTHONHASHSEED=0``."""
    personality = _personality()
    current = personality(0xFFFFFFFF) if personality is not None else -1
    if current < 0:
        return False
    if current & ADDR_NO_RANDOMIZE:
        return True
    if os.environ.get(RELAUNCHED) == "1" or personality(current | ADDR_NO_RANDOMIZE) < 0:
        return False
    os.environ[RELAUNCHED] = "1"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])


WORKLOADS = {
    "wire-line": ("wire_line", "WireLine"),
    "sim-mesh-churn": ("mesh_churn", "MeshChurn"),
    "reef-loop": ("reef_loop", "ReefLoop"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    layout_pinned = _pin_layout()

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: the program's source ({source}/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    os.chdir(ROOT)

    import importlib

    from harness import drive
    from layers import targets

    module_name, class_name = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module_name), class_name)()
    summary = drive(workload, args.seed, args.seconds, bool(args.trace),
                    targets() if args.trace else [])
    print(f"address randomization {'off' if layout_pinned else 'on'}, "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}")
    for line in summary.report:
        print(line)
    print(json.dumps({
        "correct": summary.correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
