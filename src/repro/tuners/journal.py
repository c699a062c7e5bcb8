"""Append-only JSONL tuning journal: crash-safe checkpoint/resume.

A long tuning campaign must survive being killed -- by a node failure,
a walltime limit, or an operator -- without losing the budget already
spent.  The journal makes every completed generation durable: after each
GA generation the tuner appends one JSON line carrying the population
(genomes and fitnesses), the dispatched evaluations and their measured
perfs, the RNG state, the noise/fault stream positions, the simulated
clock, the quarantine list and the agent state.  Each line is flushed
and fsynced, so a kill at any instant leaves a valid prefix: a final
line without its newline is torn and dropped on load, and any other
line that does not parse is damage, reported as a :class:`JournalError`
naming the file and line.

Resume semantics (bit-identical by construction)
------------------------------------------------
Rather than restoring every stateful component from a snapshot (the RL
agents alone would need their replay buffers, target networks and
epsilon schedules serialised), resume *re-drives the tuner through the
journal*: the pipeline is rebuilt exactly as the original invocation
built it (same seed, same construction order) and re-runs, except that
each journaled generation's evaluations are answered from the journal
instead of the simulator, and the noise/fault stream positions and the
clock are fast-forwarded to the recorded values at each generation
boundary.  Everything that is *not* an evaluation -- breeding, subset
selection, agent training, stopping decisions -- re-executes the exact
code with the exact RNG stream, so the resumed run is the uninterrupted
run.  The recorded RNG state doubles as an integrity check: at every
replayed generation boundary the live RNG state must equal the journaled
one, otherwise the journal does not belong to this pipeline
(:class:`JournalError`).

Every record also carries the run's counters at its boundary
(``n_evaluations``, ``trace_replays`` and the ``resilience`` dict) and
its quarantine list; replay writes them back into the evaluator, so a
resumed run counts what the uninterrupted one did.  The journal holds
nothing of the trace cache: the cache is a memo, and no fault draw,
noise draw or clock charge depends on whether a trace was cached, so
the resumed run goes live with a cold cache and still continues the
uninterrupted run exactly.  Its cache and build counters count the
resuming process's own lookups and builds.

:class:`RunJournal` is the only code that knows the record format on
the tuner side: :class:`~repro.tuners.hstuner.HSTuner` calls it at fixed
points (baseline, generation start, each evaluation dispatch,
generation end, run end) and keeps only the GA loop.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.observability.recorder import iter_jsonl

from .resilience import EvaluationStats

if TYPE_CHECKING:
    from repro.ga import Individual

    from .hstuner import HSTuner

__all__ = [
    "JournalError",
    "BaselineRecord",
    "GenerationRecord",
    "Journal",
    "JournalWriter",
    "ReplayCursor",
    "RunJournal",
    "load_journal",
    "rng_state_jsonable",
]

#: Version 2 draws transient faults per evaluation attempt; a version 1
#: journal would resume onto a different fault schedule, so it is refused.
JOURNAL_VERSION = 2

#: The evaluator counters a record's ``resilience`` dict carries, in key
#: order.
_RESILIENCE_KEYS = ("retries", "timeouts", "quarantined")


class JournalError(Exception):
    """The journal is unreadable, inconsistent, or belongs to a
    different pipeline than the one replaying it."""


def rng_state_jsonable(rng: np.random.Generator) -> dict[str, Any]:
    """A generator's bit-generator state, normalised through a JSON
    round-trip so recorded and live states compare with ``==``."""
    return json.loads(json.dumps(rng.bit_generator.state))


# -- records -----------------------------------------------------------------------


def _as_line(kind: str, record: Any) -> dict[str, Any]:
    """A record as one journal line: its fields in declaration order, so
    field order is the line's key order (JSON writes tuples as lists).
    Shallow on purpose: the writer only serialises it."""
    return {"type": kind, **{f.name: getattr(record, f.name) for f in fields(record)}}


@dataclass(frozen=True)
class BaselineRecord:
    """The untuned-configuration evaluation that opens every run."""

    perf: float
    noise_position: int
    n_evaluations: int
    #: Trace replays so far (a retried evaluation replays again).
    trace_replays: int = 0
    fault_state: dict[str, Any] | None = None
    quarantine: dict[str, str] = field(default_factory=dict)
    resilience: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return _as_line("baseline", self)

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "BaselineRecord":
        return cls(
            perf=float(obj["perf"]),
            noise_position=int(obj["noise_position"]),
            n_evaluations=int(obj["n_evaluations"]),
            trace_replays=int(obj.get("trace_replays", 0)),
            fault_state=obj.get("fault_state"),
            quarantine=dict(obj.get("quarantine", {})),
            resilience=dict(obj.get("resilience", {})),
        )


@dataclass(frozen=True)
class GenerationRecord:
    """One completed GA generation: what was evaluated, what it scored,
    and the exact post-generation state of every stream the evaluation
    consumed."""

    iteration: int
    #: Genomes dispatched for evaluation this generation, in order.
    dispatched: tuple[tuple[int, ...], ...]
    #: Their measured perfs (MB/s), same order.
    perfs: tuple[float, ...]
    #: Full population after evaluation (genome, fitness) pairs.
    population: tuple[tuple[tuple[int, ...], float], ...]
    #: Parameter names tuned this generation (subset tuning).
    subset: tuple[str, ...]
    noise_position: int
    clock_seconds: float
    clock_evaluations: int
    n_evaluations: int
    rng_state: dict[str, Any]
    #: Trace replays so far (see :attr:`BaselineRecord.trace_replays`).
    trace_replays: int = 0
    fault_state: dict[str, Any] | None = None
    quarantine: dict[str, str] = field(default_factory=dict)
    resilience: dict[str, int] = field(default_factory=dict)
    agent_state: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        return _as_line("generation", self)

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "GenerationRecord":
        return cls(
            iteration=int(obj["iteration"]),
            dispatched=tuple(tuple(int(i) for i in g) for g in obj["dispatched"]),
            perfs=tuple(float(p) for p in obj["perfs"]),
            population=tuple(
                (tuple(int(i) for i in g), float(f)) for g, f in obj["population"]
            ),
            subset=tuple(obj.get("subset", ())),
            noise_position=int(obj["noise_position"]),
            clock_seconds=float(obj["clock_seconds"]),
            clock_evaluations=int(obj["clock_evaluations"]),
            n_evaluations=int(obj["n_evaluations"]),
            rng_state=dict(obj["rng_state"]),
            trace_replays=int(obj.get("trace_replays", 0)),
            fault_state=obj.get("fault_state"),
            quarantine=dict(obj.get("quarantine", {})),
            resilience=dict(obj.get("resilience", {})),
            agent_state=obj.get("agent_state"),
        )


@dataclass
class Journal:
    """A parsed journal: header, baseline, the generation ledger, and
    the final marker when the run completed."""

    header: dict[str, Any]
    baseline: BaselineRecord | None = None
    generations: list[GenerationRecord] = field(default_factory=list)
    final: dict[str, Any] | None = None
    #: Byte length of the valid prefix; a torn trailing line (crash
    #: mid-append) lies beyond it and is truncated away before the
    #: resumed run appends.
    valid_bytes: int = 0

    @property
    def last_iteration(self) -> int:
        """Highest journaled generation index, -1 when none."""
        return self.generations[-1].iteration if self.generations else -1

    @property
    def completed(self) -> bool:
        return self.final is not None


def _parse_record(cls: Any, obj: Mapping[str, Any], where: str) -> Any:
    """``cls.from_json(obj)``, or :class:`JournalError` naming the line.

    A complete line that fails to parse is damage, not a torn append, so
    it is reported rather than crashing or misreporting the run."""
    try:
        return cls.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise JournalError(
            f"{where}: malformed {obj['type']} record ({detail})"
        ) from None


def load_journal(path: str) -> Journal:
    """Parse a journal file, tolerating a torn trailing line.

    Raises :class:`JournalError` when the file is missing, does not
    start with a valid header, holds a complete line that is not a JSON
    object (naming the line), a complete record with a missing or
    mistyped field, interleaves generations out of order, or holds
    any record after the ``final`` one.
    """
    if not os.path.exists(path):
        raise JournalError(f"journal not found: {path}")
    try:
        records = list(iter_jsonl(path))
    except ValueError as exc:
        raise JournalError(str(exc)) from None
    if not records:
        raise JournalError(f"journal is empty: {path}")
    header, end, _ = records[0]
    if header.get("type") != "header":
        raise JournalError(f"journal does not start with a header: {path}")
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"unsupported journal version {version!r} (supported: {JOURNAL_VERSION})"
        )
    journal = Journal(header=header, valid_bytes=end)
    for obj, end, lineno in records[1:]:
        kind = obj.get("type")
        where = f"{path}:{lineno}"
        if journal.final is not None:
            raise JournalError(f"{where}: {kind} record after the final record")
        if kind == "baseline":
            journal.baseline = _parse_record(BaselineRecord, obj, where)
        elif kind == "generation":
            record = _parse_record(GenerationRecord, obj, where)
            if record.iteration != journal.last_iteration + 1:
                raise JournalError(
                    f"journal generations out of order: expected iteration "
                    f"{journal.last_iteration + 1}, found {record.iteration}"
                )
            journal.generations.append(record)
        elif kind == "final":
            journal.final = obj
        else:
            raise JournalError(f"{where}: unknown journal record type {kind!r}")
        journal.valid_bytes = end
    return journal


class JournalWriter:
    """Appends records to a journal file, fsyncing each line.

    When resuming (``resume_from`` is a loaded :class:`Journal`), records
    the resumed run re-emits for already-journaled generations are
    skipped, so the file stays strictly append-only across restarts.
    """

    def __init__(
        self,
        path: str,
        header: Mapping[str, Any],
        resume_from: Journal | None = None,
    ):
        self.path = path
        self._last_recorded = (
            resume_from.last_iteration if resume_from is not None else -1
        )
        self._baseline_recorded = (
            resume_from is not None and resume_from.baseline is not None
        )
        self._final_recorded = resume_from is not None and resume_from.completed
        if resume_from is None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._append(
                {"type": "header", "version": JOURNAL_VERSION, **dict(header)}
            )
        else:
            # Drop any torn trailing line the kill left behind, so the
            # resumed records don't get glued onto half a record.
            if 0 < resume_from.valid_bytes < os.path.getsize(path):
                with open(path, "r+b") as fh:
                    fh.truncate(resume_from.valid_bytes)
            self._fh = open(path, "a", encoding="utf-8")

    def _append(self, obj: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def write_baseline(self, record: BaselineRecord) -> None:
        if self._baseline_recorded:
            return
        self._baseline_recorded = True
        self._append(record.to_json())

    def write_generation(self, record: GenerationRecord) -> None:
        if record.iteration <= self._last_recorded:
            return
        self._last_recorded = record.iteration
        self._append(record.to_json())

    def write_final(self, stop_reason: str, stopped_at: int | None) -> None:
        if self._final_recorded:
            return
        self._final_recorded = True
        self._append(
            {"type": "final", "stop_reason": stop_reason, "stopped_at": stopped_at}
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplayCursor:
    """Feeds journaled evaluations back to a resuming tuner, in order."""

    def __init__(self, journal: Journal):
        self.journal = journal
        self._baseline_consumed = False
        self._next = 0

    def baseline(self) -> BaselineRecord | None:
        """The baseline record, once; None on later calls or when the
        journal has none."""
        if self._baseline_consumed:
            return None
        self._baseline_consumed = True
        return self.journal.baseline

    def next_generation(self) -> GenerationRecord | None:
        """The next journaled generation, or None when the journal is
        exhausted (the tuner goes live from there)."""
        if self._next >= len(self.journal.generations):
            return None
        record = self.journal.generations[self._next]
        self._next += 1
        return record


def verify_dispatch(
    record: GenerationRecord, genomes: Sequence[Sequence[int]]
) -> None:
    """Check that the individuals a replaying engine dispatched match the
    journaled ones -- the cheap integrity guard that catches resuming
    with the wrong seed, workload or tuner settings."""
    recorded = [list(g) for g in record.dispatched]
    live = [list(g) for g in genomes]
    if recorded != live:
        raise JournalError(
            f"journal mismatch at iteration {record.iteration}: the resumed "
            f"pipeline dispatched different genomes than the journaled run "
            f"(was the journal written with different settings or seed?)"
        )


def verify_rng(record: GenerationRecord, rng: np.random.Generator) -> None:
    """Check that the replaying RNG reached the journaled state at the
    generation boundary (the strong bit-identity guard)."""
    live = rng_state_jsonable(rng)
    if live != record.rng_state:
        raise JournalError(
            f"journal mismatch at iteration {record.iteration}: RNG state "
            f"diverged during replay (journal written by an incompatible "
            f"pipeline or code version)"
        )


# -- the tuner's journal hooks ------------------------------------------------------


class RunJournal:
    """A tuner's journal hooks: record every boundary through ``writer``
    and, on resume, answer the journaled generations from ``replay``
    instead of the simulator, restoring the tuner's streams (noise,
    faults, clock, quarantine) and the evaluator's counters at each
    boundary.  With neither, every hook leaves the run untouched.
    """

    def __init__(
        self,
        tuner: "HSTuner",
        writer: JournalWriter | None = None,
        replay: ReplayCursor | None = None,
    ):
        self.tuner = tuner
        self.writer = writer
        self.replay = replay
        #: Genomes dispatched in the current generation, in order.
        self.dispatched: list[list[int]] = []
        self._record: GenerationRecord | None = None
        self._answered = 0

    @property
    def replaying(self) -> bool:
        """Whether the current generation is answered from the journal."""
        return self._record is not None

    def baseline(self, evaluate: Callable[[], float]) -> tuple[float, bool]:
        """Open a run: replay the journaled baseline (restoring the
        streams it consumed) or ``evaluate()`` it live, then journal it.
        Returns the perf and whether it was replayed."""
        record = self.replay.baseline() if self.replay is not None else None
        if record is None:
            perf = evaluate()
        else:
            perf = record.perf
            self._restore(record)
        if self.writer is not None:
            tuner = self.tuner
            stats = tuner._resilient.stats
            self.writer.write_baseline(
                BaselineRecord(
                    perf=perf,
                    noise_position=tuner.simulator.noise.position,
                    n_evaluations=stats.evaluations,
                    trace_replays=stats.trace_replays,
                    fault_state=self._fault_state(),
                    quarantine=tuner._resilient.quarantine_state(),
                    resilience=_counts(stats, _RESILIENCE_KEYS),
                )
            )
        return perf, record is not None

    def begin_generation(self) -> None:
        """Fetch the generation to replay (none once the journal has run
        dry: the tuner goes live)."""
        self.dispatched.clear()
        self._answered = 0
        if self.replay is not None:
            self._record = self.replay.next_generation()

    def answer(
        self,
        individuals: Sequence["Individual"],
        live: Callable[[Sequence["Individual"]], list[float]],
    ) -> list[float]:
        """Log the dispatched genomes (a writer journals them, a replay
        checks them), then return their perfs: the next journaled ones
        when replaying, else ``live(individuals)``."""
        if self.writer is not None or self.replay is not None:
            self.dispatched.extend(ind.genome.tolist() for ind in individuals)
        record = self._record
        if record is None:
            return live(individuals)
        end = self._answered + len(individuals)
        if end > len(record.perfs):
            raise JournalError(
                f"journal mismatch at iteration {record.iteration}: the resumed "
                f"pipeline dispatched more evaluations than the journaled run"
            )
        perfs = list(record.perfs[self._answered : end])
        self._answered = end
        return perfs

    def end_generation(self) -> bool:
        """Close a generation; returns whether it was replayed.  A
        replayed generation restores every stream its evaluations would
        have consumed, then checks that the replay stayed on the
        journaled path (:func:`verify_dispatch`, :func:`verify_rng`)."""
        record, self._record = self._record, None
        if record is None:
            return False
        verify_dispatch(record, self.dispatched)
        self.tuner.clock.restore(record.clock_seconds, record.clock_evaluations)
        self._restore(record)
        verify_rng(record, self.tuner.rng)
        return True

    def record_generation(
        self, iteration: int, subset: tuple[str, ...], perfs: Sequence[float]
    ) -> None:
        """Journal the generation that just completed (the writer skips
        generations a resumed journal already holds)."""
        if self.writer is None:
            return
        tuner = self.tuner
        stats = tuner._resilient.stats
        self.writer.write_generation(
            GenerationRecord(
                iteration=iteration,
                dispatched=tuple(tuple(g) for g in self.dispatched),
                perfs=tuple(perfs),
                population=tuple(
                    (tuple(int(i) for i in ind.genome), float(ind.fitness))
                    for ind in tuner._engine.population
                ),
                subset=subset,
                noise_position=tuner.simulator.noise.position,
                clock_seconds=tuner.clock.elapsed_seconds,
                clock_evaluations=tuner.clock.n_evaluations,
                n_evaluations=stats.evaluations,
                rng_state=rng_state_jsonable(tuner.rng),
                trace_replays=stats.trace_replays,
                fault_state=self._fault_state(),
                quarantine=tuner._resilient.quarantine_state(),
                resilience=_counts(stats, _RESILIENCE_KEYS),
                agent_state=tuner._journal_agent_state(),
            )
        )

    def end_run(self, stop_reason: str, stopped_at: int | None) -> None:
        if self.writer is not None:
            self.writer.write_final(stop_reason, stopped_at)

    def _fault_state(self) -> dict[str, Any] | None:
        faults = self.tuner.simulator.faults
        return faults.get_state() if faults is not None else None

    def _restore(self, record: BaselineRecord | GenerationRecord) -> None:
        """Put back what a record's evaluations consumed and counted:
        the noise and fault stream positions, the quarantine list and
        the evaluator's run counters (its cache and build counters stay
        this process's own; the restored replays are noted apart, see
        :attr:`~repro.tuners.resilience.EvaluationStats.trace_reuse`)."""
        tuner = self.tuner
        tuner.simulator.noise.seek(record.noise_position)
        faults = tuner.simulator.faults
        if faults is not None and record.fault_state is not None:
            faults.set_state(record.fault_state)
        evaluator = tuner._resilient
        evaluator.restore_quarantine(record.quarantine)
        stats = evaluator.stats
        stats.evaluations = record.n_evaluations
        stats.trace_replays = stats.restored_replays = record.trace_replays
        for key in _RESILIENCE_KEYS:
            setattr(stats, key, int(record.resilience.get(key, 0)))


def _counts(stats: EvaluationStats, keys: Sequence[str]) -> dict[str, int]:
    """The named counters of ``stats``, in ``keys`` order."""
    return {key: getattr(stats, key) for key in keys}
