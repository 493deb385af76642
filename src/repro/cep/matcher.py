"""Run-based pattern matching over event streams.

:class:`PatternMatcher` feeds events through the compiled automaton,
maintaining a set of *runs* (partial matches).  Semantics:

- **skip-till-any-match** (default): a run may ignore events that do not
  advance it, and every event may both extend existing runs and start
  new ones — the standard relaxed CEP selection strategy;
- **strict** contiguity: a run must consume every event after its first
  or die (matches must be contiguous sub-sequences);
- ``within``: a run whose time span would exceed the window is pruned;
- NEG guards kill runs that *skip* a violating event (consuming
  transitions take precedence, as usual in CEP negation);
- duplicate matches (same consumed events) are emitted once.

Detected matches form the paper's *pattern stream* ``S^P``
(Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.cep.nfa import compile_expr
from repro.cep.patterns import Pattern
from repro.streams.events import Event
from repro.streams.stream import EventStream


@dataclass(frozen=True)
class PatternMatch:
    """One detected pattern instance ``P_i``.

    Attributes
    ----------
    pattern_name:
        Name of the matched pattern (its type ``\\mathcal{P}``).
    events:
        The constituent events ``e_1..e_m`` in consumption order — the
        *elements* of the pattern instance.
    """

    pattern_name: str
    events: Tuple[Event, ...]

    @property
    def start(self) -> float:
        """Timestamp of the first constituent event."""
        return self.events[0].timestamp

    @property
    def end(self) -> float:
        """Timestamp of the last constituent event."""
        return self.events[-1].timestamp

    @property
    def span(self) -> float:
        """Time between first and last constituent event."""
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.events)

    def element_types(self) -> Tuple[str, ...]:
        """Event types of the constituent events, in order."""
        return tuple(event.event_type for event in self.events)


class PatternStream:
    """The stream ``S^P`` of detected pattern instances, in detection order."""

    def __init__(self, matches: Iterable[PatternMatch] = ()):
        self._matches: List[PatternMatch] = list(matches)

    def __iter__(self) -> Iterator[PatternMatch]:
        return iter(self._matches)

    def __len__(self) -> int:
        return len(self._matches)

    def __getitem__(self, index):
        return self._matches[index]

    def append(self, match: PatternMatch) -> None:
        self._matches.append(match)


@dataclass
class _Run:
    state: object
    consumed: Tuple[Event, ...]
    first_ts: float


class PatternMatcher:
    """Incremental matcher for one pattern over an event stream.

    Parameters
    ----------
    pattern:
        The pattern to detect.
    within:
        Optional maximum time span between the first and last constituent
        event of a match.
    contiguity:
        ``"skip-till-any"`` (default) or ``"strict"``.
    max_active_runs:
        Upper bound on simultaneously tracked partial matches; the oldest
        runs are dropped beyond it (a standard CEP load-shedding guard).
    """

    def __init__(
        self,
        pattern: Pattern,
        *,
        within: Optional[float] = None,
        contiguity: str = "skip-till-any",
        max_active_runs: int = 10_000,
    ):
        if contiguity not in ("skip-till-any", "strict"):
            raise ValueError(
                f"contiguity must be 'skip-till-any' or 'strict', got {contiguity!r}"
            )
        if within is not None and within <= 0:
            raise ValueError(f"within must be positive, got {within}")
        if max_active_runs <= 0:
            raise ValueError(f"max_active_runs must be positive, got {max_active_runs}")
        self.pattern = pattern
        self.within = within
        self.contiguity = contiguity
        self.max_active_runs = max_active_runs
        self._automaton = compile_expr(pattern.expr)
        self._runs: List[_Run] = []
        self._emitted: set = set()

    def reset(self) -> None:
        """Forget all partial matches and emitted-match memory."""
        self._runs = []
        self._emitted = set()

    @property
    def active_runs(self) -> int:
        """Number of currently tracked partial matches."""
        return len(self._runs)

    def process(self, event: Event) -> List[PatternMatch]:
        """Feed one event; return the matches completed by it."""
        matches: List[PatternMatch] = []
        next_runs: List[_Run] = []

        for run in self._runs:
            # Window pruning: consuming this event would overflow `within`,
            # and any later event is even further out.
            if (
                self.within is not None
                and event.timestamp - run.first_ts > self.within
            ):
                continue
            successors = self._automaton.step(run.state, event)
            for state in successors:
                new_run = _Run(state, run.consumed + (event,), run.first_ts)
                next_runs.append(new_run)
                if self._automaton.is_accepting(state):
                    self._emit(new_run, matches)
            if self.contiguity == "strict":
                continue  # the skipping copy dies under strict contiguity
            if successors and self._automaton.forbidden_matches(run.state, event):
                # A NEG guard fires and the run also had a consuming
                # option: the consuming copies above survive, the parked
                # copy dies.
                continue
            if not successors and self._automaton.forbidden_matches(run.state, event):
                continue  # guard fires, nothing consumed: run dies
            next_runs.append(run)

        # Every event may start fresh runs.
        for init in self._automaton.initials():
            for state in self._automaton.step(init, event):
                run = _Run(state, (event,), event.timestamp)
                next_runs.append(run)
                if self._automaton.is_accepting(state):
                    self._emit(run, matches)

        if len(next_runs) > self.max_active_runs:
            next_runs = next_runs[-self.max_active_runs :]
        self._runs = next_runs
        return matches

    def match_stream(self, stream: EventStream) -> PatternStream:
        """Match a whole stream; return all matches in detection order.

        For the common single-type/sequence patterns the compiled NFA is
        *type-pure* and stepping runs off memoized successor tables
        (``Nfa.successors_by_type``) — one dictionary lookup per active
        run per event instead of per-transition predicate evaluation.
        General predicates use the same run logic through the fallback
        stepping.
        """
        detected = PatternStream()
        process = self.process
        for event in stream:
            for match in process(event):
                detected.append(match)
        return detected

    def feed(self, stream: EventStream) -> PatternStream:
        """Feed a whole stream; alias of :meth:`match_stream`."""
        return self.match_stream(stream)

    def _emit(self, run: _Run, matches: List[PatternMatch]) -> None:
        key = run.consumed
        if key in self._emitted:
            return
        self._emitted.add(key)
        matches.append(PatternMatch(self.pattern.name, run.consumed))
