"""Say which benchmark metrics really moved between two result runs.

Compares the ``BENCH_*.json`` summaries of a fresh run against a base
run (the committed ``benchmarks/results/`` by default).  A metric ``k``
is compared when the base summary records its spread as ``k_min`` /
``k_max``: it is flagged ``MOVED`` only when the fresh value lies
outside that range, since a change inside it is noise.  Metrics
without a recorded spread are listed as unflagged.  The report never
fails — gates stay in ``check_gates.py`` — so it always exits 0.

Usage: ``python benchmarks/compare.py FRESH_DIR [BASE_DIR]``

A fresh run comes from
``PYTHONPATH=src python -m pytest benchmarks --bench-results=FRESH_DIR``.
"""

import json
import os
import sys

_SPREAD_SUFFIXES = ("_min", "_max", "_rounds")


def _metrics(path):
    """The summary's metrics, or ``None`` if it is missing/unreadable."""
    try:
        with open(path) as handle:
            metrics = json.load(handle).get("metrics", {})
    except (OSError, ValueError, AttributeError):
        return None
    return metrics if isinstance(metrics, dict) else None


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_spread_key(key, base):
    """Whether ``key`` is one bound of another metric's spread."""
    for suffix in _SPREAD_SUFFIXES:
        stem = key[: -len(suffix)]
        if key.endswith(suffix) and f"{stem}_min" in base:
            return True
    return False


def compare(fresh_dir, base_dir):
    """Print the comparison report; return the number of moved metrics."""
    summaries = sorted(
        name
        for name in os.listdir(fresh_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    if not summaries:
        print(f"no BENCH_*.json summaries under {fresh_dir}")
    moved = compared = 0
    for filename in summaries:
        fresh = _metrics(os.path.join(fresh_dir, filename))
        base = _metrics(os.path.join(base_dir, filename))
        if fresh is None:
            print(f"{filename}: unreadable fresh summary")
            continue
        if base is None:
            print(f"{filename}: no readable base summary; nothing compared")
            continue
        unflagged = []
        for key, value in sorted(fresh.items()):
            if _is_spread_key(key, base):
                continue
            low, high = base.get(f"{key}_min"), base.get(f"{key}_max")
            if not all(map(_is_number, (value, low, high))):
                unflagged.append(key)
                continue
            compared += 1
            inside = low <= value <= high
            moved += not inside
            verdict = "within" if inside else "MOVED outside"
            print(
                f"{filename}: {key} = {value:.4g} {verdict} "
                f"[{low:.4g}, {high:.4g}]"
            )
        if unflagged:
            print(
                f"{filename}: unflagged (no recorded spread): "
                f"{', '.join(unflagged)}"
            )
    print(f"{moved} of {compared} compared metrics moved")
    return moved


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip())
        sys.exit(0)
    base_dir = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results"
    )
    compare(sys.argv[1], base_dir)
    sys.exit(0)
