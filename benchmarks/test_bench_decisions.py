"""Decision benchmark: release bit-identity plus prepass speedup.

Runs the three sequential schedulers — BD, BA and landmark — over a
service-sized indicator stream and pins two gates into
``BENCH_decisions.json`` for ``benchmarks/check_gates.py``:

- ``decisions_bit_identity`` (always): each release path must end
  where the independent seed loop of :mod:`repro.runtime.reference`
  ends, bit for bit.  BD/BA ``step_block`` over the whole stream is
  checked against ``reference_w_event_perturb``'s ``final_state``
  (released rows, trace columns, scheduler state, last release, ``t``);
  landmark ``step_block`` against ``reference_landmark_perturb``'s, and
  the ``advance_block`` prepass snapshot against the ``step_block``
  snapshot, at every share in :data:`LANDMARK_SHARES`.  A margin too
  tight for the platform's rounding would surface here before it
  surfaced in any paper figure.
- ``scan_vs_scalar_prepass`` (hosts with ≥ :data:`REQUIRED_CPUS`
  effective cores): the landmark checkpoint prepass — the sequential
  phase every sharded landmark run pays in the parent — must beat the
  scalar walk (``_advance`` row by row) by at least
  :data:`SPEEDUP_FLOOR` on its best arm: ``advance_block`` hops the
  regular rows outright.
- ``landmark_dense_prepass_vs_scalar`` (always — both arms run on one
  thread): the landmark prepass at the dense shares (20% and 60% of
  rows are landmarks) must be no slower than the scalar walk.  The hop
  saves only the regular rows, so these arms keep it from costing
  more than it saves where regular rows are few.

BD and BA have one release path, so they have no scalar arm to pair
with: their prepass (the run's one ``step_block`` release) is timed at
every ε in :data:`BD_BA_EPSILONS`, with the publication rate of each
run and its distance passes per publication
(``passes_per_publication/...``: the ``_release_distances`` calls the
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
from repro.baselines import w_event
from repro.baselines.base import as_statistics
from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.runtime.reference import (
    reference_landmark_perturb,
    reference_w_event_perturb,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.tables import ResultTable

#: Minimum effective cores for the prepass speedup floor (matches the
#: bench job's runner class; single-core hosts skip with a reason).
REQUIRED_CPUS = 4

#: Pinned floor: the landmark prepass at least this much faster than
#: the scalar per-timestamp walk.
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
#: make the dense prepass slower than the scalar walk.
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


def _mechanism(kind, n, epsilon=EPSILON, share=LANDMARK_SHARES[0]):
    if kind == "landmark":
        return LandmarkPrivacy(
            epsilon, landmarks=_landmark_mask(n, share), rho=0.5
        )
    cls = BudgetDistribution if kind == "bd" else BudgetAbsorption
    return cls(epsilon, w=W)


def _releaser(kind, n, epsilon=EPSILON, share=LANDMARK_SHARES[0]):
    mechanism = _mechanism(kind, n, epsilon, share)
    return mechanism.online_releaser(N_TYPES, rng=1, horizon=n)


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


#: The per-timestamp trace columns, named as the w-event seed loop's
#: ``final_state`` keys.
_TRACE_COLUMNS = (
    "published",
    "publication_budgets",
    "dissimilarity_budgets",
)


def _end_state(releaser):
    """A releaser's end state, keyed as the seed loops' ``final_state``."""
    state = {"last_release": releaser.last_release, "t": releaser.t}
    if isinstance(releaser, w_event.OnlineReleaser):
        state["scheduler_state"] = releaser.scheduler_state
        for column in _TRACE_COLUMNS:
            state[column] = list(getattr(releaser.trace, column))
    else:
        state["remaining_publication"] = releaser._remaining_publication
        state["landmarks_left"] = releaser._landmarks_left
    return state


def _matches_seed_loop(kind, share, matrix):
    """Whether ``step_block`` over the whole stream ends exactly where
    the seed loop ends (and, for landmark, the ``advance_block``
    snapshot equals the ``step_block`` one)."""
    n = matrix.shape[0]
    stream = IndicatorStream(
        EventAlphabet.numbered(N_TYPES), matrix.astype(bool)
    )
    expected = {}
    mechanism = _mechanism(kind, n, share=share)
    if kind == "landmark":
        reference_landmark_perturb(
            mechanism,
            stream,
            mechanism._landmarks,
            rng=1,
            final_state=expected,
        )
    else:
        reference_w_event_perturb(
            mechanism, stream, rng=1, final_state=expected
        )
    releaser = _releaser(kind, n, share=share)
    released = releaser.step_block(matrix)
    identical = np.array_equal(released, expected["released"])
    for key, value in _end_state(releaser).items():
        if isinstance(value, np.ndarray):
            identical = identical and np.array_equal(value, expected[key])
        else:
            identical = identical and value == expected[key]
    if kind == "landmark":
        prepassed = _releaser(kind, n, share=share)
        prepassed.advance_block(matrix)
        identical = identical and _snapshot_equal(
            prepassed.snapshot(), releaser.snapshot()
        )
    return identical


def _passes_per_publication(monkeypatch, kind, epsilon, matrix):
    """Distance passes per publication of one release."""
    passes = []
    release_distances = w_event._release_distances

    def counting(rows, release):
        passes.append(rows.shape[0])
        return release_distances(rows, release)

    with monkeypatch.context() as patch:
        patch.setattr(w_event, "_release_distances", counting)
        releaser = _releaser(kind, matrix.shape[0], epsilon)
        releaser.step_block(matrix)
    return len(passes) / max(1, int(np.sum(releaser.trace.published)))


def _scalar_walk(releaser, matrix):
    """The landmark prepass without the hop, the arm the hop is
    measured against: ``_advance`` on every row."""
    for row in as_statistics(matrix, releaser.n_types):
        releaser._advance(row)


def test_decision_scan(benchmark, results_dir, monkeypatch):
    matrix = _stream_matrix()
    n = matrix.shape[0]
    cases = [("bd", None), ("ba", None)] + [
        ("landmark", share) for share in LANDMARK_SHARES
    ]

    # -- bit-identity: the release path ≡ the seed loop ---------------
    bit_identical = True
    for kind, share in cases:
        if not _matches_seed_loop(kind, share, matrix):
            bit_identical = False
            print(f"BIT-IDENTITY BROKEN: {kind}/{share}")
    assert bit_identical

    # -- landmark prepass: interleaved rounds, median paired ratio -----
    # Each timed arm walks the whole stream on a releaser built (mask
    # and rng pool included) before the clock starts, so a round times
    # the walk alone; the scalar arm ("off", its historical name) steps
    # every row, the prepass ("margin") hops the regular ones.
    def prepass(walk, releaser):
        if walk == "off":
            _scalar_walk(releaser, matrix)
        else:
            releaser.advance_block(matrix)

    times = {}
    paired = {}
    for share in LANDMARK_SHARES:
        arm = _landmark_arm(share)
        for _ in range(_ROUNDS):
            seconds = {}
            for walk in ("off", "margin"):
                releaser = _releaser("landmark", n, share=share)
                _, seconds[walk] = _timed(lambda: prepass(walk, releaser))
                times.setdefault(f"{arm}/prepass/{walk}", []).append(
                    seconds[walk]
                )
            paired.setdefault(arm, []).append(
                seconds["off"] / seconds["margin"]
            )

    # -- BD/BA release: one path, timed alone --------------------------
    def release(kind, epsilon):
        releaser = _releaser(kind, n, epsilon)
        releaser.step_block(matrix)
        return releaser

    publication_rates = {}
    passes_per_publication = {}
    for kind in ("bd", "ba"):
        for epsilon in BD_BA_EPSILONS:
            arm = f"{kind}/eps={epsilon:g}"
            for _ in range(_ROUNDS):
                releaser, seconds = _timed(lambda: release(kind, epsilon))
                times.setdefault(f"{arm}/prepass/margin", []).append(seconds)
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
        title=f"decision prepass over {n} windows",
    )
    for arm in per_arm:
        for walk in ("off", "margin"):
            table.add_row(
                arm=f"{arm}/prepass/{walk}",
                seconds=round(median(times[f"{arm}/prepass/{walk}"]), 4),
                speedup_vs_scalar=(
                    round(per_arm[arm], 2) if walk == "margin" else 1.0
                ),
                publication_rate=0.0,
            )
    for arm, rate in publication_rates.items():
        table.add_row(
            arm=f"{arm}/prepass/margin",
            seconds=round(median(times[f"{arm}/prepass/margin"]), 4),
            publication_rate=round(rate, 4),
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
        f"dense landmark prepass only {dense:.2f}x the scalar walk"
    )
    if enforceable:
        assert overall >= SPEEDUP_FLOOR, (
            f"landmark prepass only {overall:.2f}x the scalar walk"
        )
