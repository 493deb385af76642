"""Decision-kernel benchmark: scan bit-identity plus prepass speedup.

Runs the three kernelized schedulers — BD, BA and landmark — over a
service-sized indicator stream in every scan mode and pins two gates
into ``BENCH_decisions.json`` for ``benchmarks/check_gates.py``:

- ``decisions_bit_identity`` (always): ``scan=margin`` and
  ``scan=exact`` must reproduce the ``scan=off`` scalar loop bit for
  bit — releases, verdict traces and final snapshots alike, and for
  landmark also the end state of the ``advance_block`` prepass at every
  share in :data:`LANDMARK_SHARES`.  This is the kernel's contract; a
  margin too tight for the platform's rounding would surface here
  before it surfaced in any paper figure.
- ``scan_vs_scalar_prepass`` (hosts with ≥ :data:`REQUIRED_CPUS`
  effective cores): the checkpoint prepass — the sequential phase
  every sharded run pays in the parent — under ``scan=margin`` must
  beat the scalar loop by at least :data:`SPEEDUP_FLOOR`.  For BD/BA
  the prepass is the run's one release (``step_block``); for landmark
  it is the ``advance_block`` walk that snapshots shard boundaries.
  BD/BA rows certified by the triangle-inequality distance bounds need
  no distance at all, only publishing rows install a generator, the
  budget hook runs once per constant-budget stretch, and landmark
  regular rows are hopped outright.
- ``landmark_dense_prepass_vs_scalar`` (always — both arms run on one
  thread): the landmark prepass at the dense shares (20% and 60% of
  rows are landmarks) must be no slower than ``scan=off``.  The hop
  saves only the regular rows, so these arms keep it from costing
  more than it saves where regular rows are few.

BD and BA are measured at every ε in :data:`BD_BA_EPSILONS`, with the
publication rate of each run and its distance passes per publication
(``passes_per_publication/...``: the ``release_distances`` calls the
bound certificate leaves undecided; there was one per publication
before it).  Their dissimilarity noise scale and publish threshold
both scale with 1/ε, so they publish on a steady share of rows at
every ε: there is no budget-depleted regime to bulk-skip, and the
publish-dense arms are the ones that matter.
"""

import time

import numpy as np

from benchmarks.conftest import (
    effective_cpu_count,
    emit,
    emit_json,
    floor_reason,
    median,
    paired_speedup,
    ratio_spread,
)
from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.runtime import decisions
from repro.utils.tables import ResultTable

#: Minimum effective cores for the prepass speedup floor (matches the
#: bench job's runner class; single-core hosts skip with a reason).
REQUIRED_CPUS = 4

#: Pinned floor: the scanned prepass at least this much faster than
#: the scalar per-timestamp loop.
SPEEDUP_FLOOR = 1.5

#: Stream scale: long enough that per-timestamp Python work dominates
#: the scalar arm, short enough to keep every arm under a few seconds.
N_WINDOWS = 120_000

N_TYPES = 8

_ROUNDS = 5

EPSILON = 1.0
W = 40

#: The ε sweep of the BD/BA arms (landmark runs at :data:`EPSILON`).
BD_BA_EPSILONS = (0.1, 1.0, 8.0)

#: Landmark shares of the landmark arms: the sparse mask the headline
#: ``scan_vs_scalar/landmark`` arm has always used, and two dense ones
#: where the prepass has few regular rows to hop.
LANDMARK_SHARES = (0.02, 0.2, 0.6)

#: Floor of ``landmark_dense_prepass_vs_scalar``: hopping must never
#: make the dense prepass slower than the scalar loop.
DENSE_FLOOR = 1.0


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def _stream_matrix():
    rng = np.random.default_rng(20230410)
    base = (rng.random((5_000, N_TYPES)) < 0.3).astype(float)
    repeats = -(-N_WINDOWS // base.shape[0])
    return np.tile(base, (repeats, 1))[:N_WINDOWS]


def _landmark_mask(n, share):
    return np.random.default_rng(7).random(n) < share


def _landmark_arm(share):
    """Arm name; the sparse arm keeps its historical bare name."""
    if share == LANDMARK_SHARES[0]:
        return "landmark"
    return f"landmark@{share:.0%}"


def _releaser(kind, scan, n, epsilon=EPSILON, share=LANDMARK_SHARES[0]):
    if kind == "landmark":
        mechanism = LandmarkPrivacy(
            epsilon, landmarks=_landmark_mask(n, share), rho=0.5, scan=scan
        )
    else:
        cls = BudgetDistribution if kind == "bd" else BudgetAbsorption
        mechanism = cls(epsilon, w=W, scan=scan)
    return mechanism.online_releaser(N_TYPES, rng=1, horizon=n)


def _trace_tuple(releaser):
    trace = getattr(releaser, "trace", None)
    if trace is None:
        return None
    return (
        list(trace.published),
        list(trace.publication_budgets),
        list(trace.dissimilarity_budgets),
    )


def _snapshot_equal(left, right):
    if left.keys() != right.keys():
        return False
    for key in left:
        a, b = left[key], right[key]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if a is None or b is None or not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def _passes_per_publication(monkeypatch, kind, epsilon, matrix):
    """Distance passes per publication of one ``scan=margin`` release."""
    passes = []
    release_distances = decisions.release_distances

    def counting(rows, release):
        passes.append(rows.shape[0])
        return release_distances(rows, release)

    with monkeypatch.context() as patch:
        patch.setattr(decisions, "release_distances", counting)
        releaser = _releaser(kind, "margin", matrix.shape[0], epsilon)
        releaser.step_block(matrix)
    return len(passes) / max(1, int(np.sum(releaser.trace.published)))


def test_decision_scan(benchmark, results_dir, monkeypatch):
    matrix = _stream_matrix()
    n = matrix.shape[0]
    cases = [("bd", None), ("ba", None)] + [
        ("landmark", share) for share in LANDMARK_SHARES
    ]

    # -- bit-identity: margin/exact ≡ off, releases + trace + state ----
    bit_identical = True
    for kind, share in cases:
        baseline = _releaser(kind, "off", n, share=share)
        expected = baseline.step_block(matrix)
        for scan in ("margin", "exact"):
            releaser = _releaser(kind, scan, n, share=share)
            released = releaser.step_block(matrix)
            identical = (
                np.array_equal(released, expected)
                and _trace_tuple(releaser) == _trace_tuple(baseline)
                and _snapshot_equal(
                    releaser.snapshot(), baseline.snapshot()
                )
            )
            if kind == "landmark":
                prepassed = _releaser(kind, scan, n, share=share)
                prepassed.advance_block(matrix)
                identical = identical and _snapshot_equal(
                    prepassed.snapshot(), baseline.snapshot()
                )
            if not identical:
                bit_identical = False
                print(f"BIT-IDENTITY BROKEN: {kind}/{share}/{scan}")
    assert bit_identical

    # -- prepass speedup: interleaved rounds, median paired ratio ------
    arms = [("landmark", EPSILON, share) for share in LANDMARK_SHARES] + [
        (kind, epsilon, None)
        for kind in ("bd", "ba")
        for epsilon in BD_BA_EPSILONS
    ]
    times = {}
    paired = {}
    publication_rates = {}
    passes_per_publication = {}
    for kind, epsilon, share in arms:
        arm = (
            _landmark_arm(share)
            if kind == "landmark"
            else f"{kind}/eps={epsilon:g}"
        )

        def prepass(scan, kind=kind, epsilon=epsilon, share=share):
            releaser = _releaser(kind, scan, n, epsilon, share)
            if kind == "landmark":
                releaser.advance_block(matrix)
            else:
                releaser.step_block(matrix)
            return releaser

        for _ in range(_ROUNDS):
            seconds = {}
            for scan in ("off", "margin"):
                releaser, seconds[scan] = _timed(lambda: prepass(scan))
                times.setdefault(f"{arm}/prepass/{scan}", []).append(
                    seconds[scan]
                )
            paired.setdefault(arm, []).append(
                seconds["off"] / seconds["margin"]
            )
        if kind != "landmark":
            publication_rates[arm] = float(np.mean(releaser.trace.published))
            passes_per_publication[arm] = _passes_per_publication(
                monkeypatch, kind, epsilon, matrix
            )

    per_arm = {arm: paired_speedup(ratios) for arm, ratios in paired.items()}
    # "best" selects the winning *arm* (the landmark hop), not a winning
    # round — each arm's own number is already noise-robust.
    overall = max(per_arm.values())
    dense = min(
        per_arm[_landmark_arm(share)] for share in LANDMARK_SHARES[1:]
    )

    table = ResultTable(
        ["arm", "seconds", "speedup_vs_scalar", "publication_rate"],
        title=f"decision-kernel prepass over {n} windows",
    )
    for arm in per_arm:
        for scan in ("off", "margin"):
            table.add_row(
                arm=f"{arm}/prepass/{scan}",
                seconds=round(median(times[f"{arm}/prepass/{scan}"]), 4),
                speedup_vs_scalar=(
                    round(per_arm[arm], 2) if scan == "margin" else 1.0
                ),
                publication_rate=round(publication_rates.get(arm, 0.0), 4),
            )
    emit(table, results_dir, "decisions_prepass")

    enforceable = effective_cpu_count() >= REQUIRED_CPUS
    gates = {
        "decisions_bit_identity": {
            "floor": 1.0,
            "value": 1.0 if bit_identical else 0.0,
        },
        "landmark_dense_prepass_vs_scalar": {
            "floor": DENSE_FLOOR,
            "value": dense,
        },
    }
    if enforceable:
        gates["scan_vs_scalar_prepass"] = {
            "floor": SPEEDUP_FLOOR,
            "value": overall,
        }
    emit_json(
        results_dir,
        "decisions",
        {
            "n_windows": n,
            "bit_identical": 1.0 if bit_identical else 0.0,
            "best_scan_vs_scalar": overall,
            "floor_enforced": enforceable,
            **{
                f"scan_vs_scalar/{arm}": ratio
                for arm, ratio in per_arm.items()
            },
            **{
                key: value
                for arm, ratios in paired.items()
                for key, value in ratio_spread(
                    f"scan_vs_scalar/{arm}", ratios
                ).items()
            },
            **{
                f"publication_rate/{arm}": rate
                for arm, rate in publication_rates.items()
            },
            **{
                f"passes_per_publication/{arm}": passes
                for arm, passes in passes_per_publication.items()
            },
            **{
                f"seconds/{name}": median(seconds)
                for name, seconds in times.items()
            },
        },
        rows=table.rows,
        gates=gates,
        floor_skipped_reason=(
            None if enforceable else floor_reason(REQUIRED_CPUS)
        ),
    )
    benchmark.extra_info["best_scan_vs_scalar"] = overall
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert dense >= DENSE_FLOOR, (
        f"dense landmark prepass only {dense:.2f}x the scalar loop"
    )
    if enforceable:
        assert overall >= SPEEDUP_FLOOR, (
            f"scanned prepass only {overall:.2f}x the scalar loop"
        )
