"""Served-path benchmark: run one workload, print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload served --seed 1 --seconds 10 --trace 0

Workloads: ``served``, ``gateway-resume``, ``batch`` and, outside
``BENCHMARK.json``, ``gateway-paced`` (see ``perfbench/README.md``).  ``--trace 0`` prints the
end-to-end metrics of the workload; ``--trace 1`` prints every
per-layer metric.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout holding this
file, never from an installed copy; without it the run fails.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

WORKLOAD_NAMES = ("served", "gateway-paced", "gateway-resume", "batch")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError("seconds must be in 1..60")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {source}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Byte code is always cached, in the build directory: set-up time
    # then does not depend on the caller's environment, and a run
    # writes nothing into the source tree.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(source))

    from harness import measure

    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        BUILD / "perfbench",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
