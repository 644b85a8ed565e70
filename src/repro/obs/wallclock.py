"""Host wall-clock profiler for the MO-ISA executors' hot path.

The cycle domain is deeply observable (provenance attribution, top-down
accounting), but the *host* cost of executing MO-ISA instructions in
Python — the dominant end-to-end wall-clock now that compilation is
cached — was unmeasured.  This module profiles it:

- :class:`WallclockProfiler` aggregates per-opcode **self time**
  (``time.perf_counter_ns`` around each dispatch), call counts, and
  operand element counts, crossed with the instruction's provenance
  stage (``construct.error``, ``eliminate``, ...).
- It joins a run as a pair of after-dispatch hooks
  (:meth:`WallclockProfiler.dispatch_hooks`): a stop hook at the head of
  the executor's hook chain and a start hook at its tail, so each
  dispatch — one interpreted instruction, or one fused group — is one
  :meth:`~WallclockProfiler.record` and no other hook's time is counted.
- Activation follows the :mod:`repro.obs.core` conventions: **no-op by
  default**.  :meth:`~repro.compiler.executor.Executor.run` checks
  :func:`active` once per program — not per instruction — so the
  disabled path costs one module-global read per ``run()`` call
  (``tests/compiler/test_executor_overhead.py`` holds the bound).
- A drained snapshot is plain JSON-able data; it ships in BENCH
  documents (``solve_wall_clock.apps.<name>.profile``) and metrics
  entries (``host_wallclock``), both rendered by
  ``python -m repro.obs hotspots``.

Phase-level wall timers (build / compile / rebind / execute / simulate)
are *not* recorded here — they go through the existing span collector
(:mod:`repro.obs.core`) as ``host.phase`` spans and surface in the same
``hotspots`` view via ``span_timings_s``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

WALLCLOCK_SCHEMA = "repro.obs.wallclock/1"

__all__ = [
    "WALLCLOCK_SCHEMA", "WallclockProfiler",
    "active", "enable", "disable", "profiled_scope",
    "merge_snapshots",
]


class WallclockProfiler:
    """Aggregates per-opcode host self time for executed programs.

    The table is keyed ``(opcode, provenance stage)``; cells accumulate
    call counts, self nanoseconds, and result element counts.  One
    profiler may span many program executions (e.g. every repeat of a
    bench run); :meth:`drain` returns the aggregate and resets it.
    """

    __slots__ = ("_table", "_programs")

    def __init__(self) -> None:
        self._table: Dict[tuple, list] = {}
        self._programs = 0

    # -- recording (one record per dispatch) ----------------------------
    def record(self, opcode: str, stage: str, elapsed_ns: int,
               calls: int = 1, elements: int = 0) -> None:
        """Account one dispatch covering ``calls`` instructions.

        An interpreted instruction is one call; a fused block op
        (:mod:`repro.compiler.fused`) lands in the same
        ``(opcode, stage)`` cell with ``calls`` equal to its member
        count, so ``hotspots`` views stay comparable across executors
        (per-call time then reads as amortized time per fused
        instruction).
        """
        key = (opcode, stage)
        cell = self._table.get(key)
        if cell is None:
            self._table[key] = [calls, elapsed_ns, elements]
        else:
            cell[0] += calls
            cell[1] += elapsed_ns
            cell[2] += elements

    def dispatch_hooks(self):
        """A ``(stop, start)`` :data:`~repro.compiler.executor.Hook` pair
        timing one run's dispatches.

        ``stop`` goes at the head of the run's hook chain and records
        the time since ``start`` ran, at the chain's tail (the executor
        calls it once more before the first dispatch).  Other hooks'
        time therefore never counts as dispatch time.  The dispatch is
        attributed to its first instruction's opcode and provenance
        stage, with its members' destination element counts read from
        the register file *after* the write.
        """
        clock = time.perf_counter_ns
        started = 0
        record = self.record

        def stop(executor, program, indices) -> None:
            elapsed = clock() - started
            instructions = program.instructions
            registers = executor.registers
            elements = 0
            for index in indices:
                for name in instructions[index].dsts:
                    value = registers.get(name)
                    if value is not None:
                        elements += int(value.size)
            first = instructions[indices[0]]
            prov = first.provenance
            stage = prov.stage if prov is not None and prov.stage else "?"
            record(first.op.value, stage, elapsed, len(indices), elements)

        def start(executor, program, indices) -> None:
            nonlocal started
            started = clock()

        return stop, start

    def record_program(self) -> None:
        """Count one profiled program execution (for per-run averages)."""
        self._programs += 1

    # -- consumption ----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The aggregate as a plain JSON-able document."""
        by_opcode: Dict[str, Dict[str, float]] = {}
        by_opcode_stage: Dict[str, Dict[str, Dict[str, float]]] = {}
        total_ns = 0
        total_calls = 0
        for (op, stage), (calls, ns, elements) in self._table.items():
            total_ns += ns
            total_calls += calls
            slot = by_opcode.setdefault(
                op, {"calls": 0, "self_ns": 0, "elements": 0})
            slot["calls"] += calls
            slot["self_ns"] += ns
            slot["elements"] += elements
            by_opcode_stage.setdefault(op, {})[stage] = {
                "calls": calls, "self_ns": ns, "elements": elements,
            }
        return {
            "schema": WALLCLOCK_SCHEMA,
            "programs": self._programs,
            "instructions": total_calls,
            "total_self_ns": total_ns,
            "by_opcode": by_opcode,
            "by_opcode_stage": by_opcode_stage,
        }

    def drain(self) -> Dict[str, Any]:
        """:meth:`snapshot`, then reset the table."""
        snap = self.snapshot()
        self._table = {}
        self._programs = 0
        return snap


_active: Optional[WallclockProfiler] = None


def active() -> Optional[WallclockProfiler]:
    """The installed profiler, or None while profiling is off.

    This is the one check :meth:`Executor.run` performs per program; the
    timing hooks only join the run's chain while a profiler is active.
    """
    return _active


def enable(profiler: Optional[WallclockProfiler] = None
           ) -> WallclockProfiler:
    """Install (and return) the process-global wall-clock profiler."""
    global _active
    _active = profiler if profiler is not None else WallclockProfiler()
    return _active


def disable() -> None:
    global _active
    _active = None


class profiled_scope:
    """Context manager: profile executor runs inside, restore after.

    Yields the :class:`WallclockProfiler`; the caller drains it::

        with wallclock.profiled_scope() as prof:
            Executor().run(program)
        table = prof.drain()
    """

    def __init__(self, profiler: Optional[WallclockProfiler] = None):
        self._profiler = profiler
        self._previous: Optional[WallclockProfiler] = None

    def __enter__(self) -> WallclockProfiler:
        self._previous = _active
        return enable(self._profiler)

    def __exit__(self, *exc) -> bool:
        global _active
        _active = self._previous
        return False


def merge_snapshots(snapshots) -> Dict[str, Any]:
    """Fold several profiler snapshots into one (for multi-app views)."""
    merged = WallclockProfiler()
    out = merged.snapshot()
    for snap in snapshots:
        if not snap:
            continue
        out["programs"] += int(snap.get("programs", 0))
        out["instructions"] += int(snap.get("instructions", 0))
        out["total_self_ns"] += int(snap.get("total_self_ns", 0))
        for op, cell in (snap.get("by_opcode") or {}).items():
            slot = out["by_opcode"].setdefault(
                op, {"calls": 0, "self_ns": 0, "elements": 0})
            for field in ("calls", "self_ns", "elements"):
                slot[field] += int(cell.get(field, 0))
        for op, stages in (snap.get("by_opcode_stage") or {}).items():
            for stage, cell in stages.items():
                slot = out["by_opcode_stage"].setdefault(op, {}).setdefault(
                    stage, {"calls": 0, "self_ns": 0, "elements": 0})
                for field in ("calls", "self_ns", "elements"):
                    slot[field] += int(cell.get(field, 0))
    return out
