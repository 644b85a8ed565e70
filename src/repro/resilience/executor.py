"""Fault-injecting, ABFT-checked program execution.

:class:`ResilientExecutor` runs a compiled program like the functional
:class:`~repro.compiler.executor.Executor`, but between every
instruction it (a) applies the value-domain faults of a
:class:`~repro.resilience.faults.FaultPlan` and (b) verifies results
with the ABFT invariants of :mod:`repro.resilience.abft`, recovering
detected corruption through a tiered policy:

1. **retry** — re-execute the instruction (bounded attempts; transient
   faults clear, the common case);
2. **checkpoint replay** — restore the last register-file snapshot and
   replay, with the faulty site remapped to a spare unit instance
   (injection suppressed) — this is what catches persistent faults;
3. **escalate** — raise :class:`~repro.errors.FaultInjectionError`
   (caught by the solver safeguards) or, under a ``continue`` policy,
   keep the corrupted value and count the casualty.

Every attempt is recorded in ``plan.attempts`` so the timing domain
(:meth:`repro.sim.engine.Simulator.run` with ``fault_plan``) charges
cycles and energy consistent with the recovery work actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FaultInjectionError
from repro.compiler.executor import Executor
from repro.compiler.isa import Instruction, Program
from repro.obs import counters
from repro.resilience import abft
from repro.resilience.faults import FaultEvent, FaultPlan, corrupt_registers
from repro.resilience.spec import (
    ESCALATE_ERROR,
    FAULT_DROP,
    RecoveryPolicy,
    VALUE_KINDS,
)


@dataclass
class ResilienceStats:
    """Counts of what the fault campaign did to one execution."""

    injected: int = 0
    detected: int = 0
    recovered_retry: int = 0
    recovered_checkpoint: int = 0
    escalated: int = 0
    silent: int = 0
    retries: int = 0
    checkpoint_restores: int = 0
    abft_checks: int = 0
    dmr_checks: int = 0
    false_alarms: int = 0

    @property
    def recovered(self) -> int:
        return self.recovered_retry + self.recovered_checkpoint

    def to_dict(self) -> Dict[str, int]:
        out = {
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "recovered_retry": self.recovered_retry,
            "recovered_checkpoint": self.recovered_checkpoint,
            "escalated": self.escalated,
            "silent": self.silent,
            "retries": self.retries,
            "checkpoint_restores": self.checkpoint_restores,
            "abft_checks": self.abft_checks,
            "dmr_checks": self.dmr_checks,
        }
        if self.false_alarms:
            out["false_alarms"] = self.false_alarms
        return out


class ResilientExecutor(Executor):
    """An :class:`Executor` hardened by detection + tiered recovery.

    ``deadline`` (a :class:`~repro.optim.safeguards.DeadlineGuard`)
    bounds the run in wall-clock time, checked at instruction
    boundaries: a hung or pathologically slow trial raises
    :class:`~repro.errors.DeadlineExceeded` instead of hanging the
    campaign (and CI) indefinitely.
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 policy: Optional[RecoveryPolicy] = None,
                 deadline=None):
        super().__init__()
        self.plan = plan if plan is not None else FaultPlan({})
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.deadline = deadline
        self.stats = ResilienceStats()
        self._checkpoint: Optional[Tuple[int, Dict[str, np.ndarray]]] = None
        # Per-site accounting stays idempotent across checkpoint
        # replays (a replayed span re-executes instructions whose
        # faults were already counted).
        self._injected_uids: set = set()
        self._detected_uids: set = set()
        self._silent_uids: set = set()
        self._restored_for: set = set()

    # ------------------------------------------------------------------
    def run(self, program: Program) -> Dict[str, np.ndarray]:
        instructions = program.instructions
        every = self.policy.checkpoint_every
        index = 0
        # SSA registers are never mutated in place, so a shallow dict
        # copy is a complete checkpoint.
        if every:
            self._checkpoint = (0, dict(self.registers))
        deadline = self.deadline
        while index < len(instructions):
            if deadline is not None:
                deadline.check(partial={"instructions": index,
                                        "total_instructions":
                                        len(instructions)})
            if every and index and index % every == 0:
                self._checkpoint = (index, dict(self.registers))
            restart = self._execute_protected(instructions[index])
            if restart is not None:
                # Checkpoint replay: roll the register file back and
                # re-run the span with the faulty site suppressed.
                index = restart
                continue
            index += 1
        self._export_counters()
        return self.registers

    # ------------------------------------------------------------------
    def _execute_protected(self, instr: Instruction) -> Optional[int]:
        """Execute one instruction under the recovery policy.

        Returns ``None`` on success, or the instruction index to resume
        from after a checkpoint restore.
        """
        event = self.plan.event_for(instr.uid)
        attempt = 0
        while True:
            self.plan.attempts[instr.uid] = attempt + 1
            dropped = self._execute_once(instr, event, attempt)
            if dropped:
                # A dropped result never reaches the register file; the
                # watchdog notices the missing completion and reissues.
                verdict = False
            else:
                verdict = self._verify(instr)
            if verdict is not False:
                if event is not None and attempt == 0 \
                        and event.kind in VALUE_KINDS \
                        and instr.uid not in self._silent_uids:
                    # Fault landed but nothing caught it: either the
                    # opcode is unchecked with DMR off (verdict None) or
                    # the corruption slipped under the checksum
                    # tolerance — silent data corruption either way.
                    self._silent_uids.add(instr.uid)
                    self.stats.silent += 1
                    counters.incr("resilience.faults.silent")
                if attempt > 0:
                    self.stats.recovered_retry += 1
                    counters.incr("resilience.faults.recovered")
                return None
            if instr.uid not in self._detected_uids:
                self._detected_uids.add(instr.uid)
                self.stats.detected += 1
                counters.incr("resilience.faults.detected")
                if event is None:
                    # No fault was scheduled here: the check itself
                    # tripped (tolerance too tight for this operand
                    # scale).  Tracked so campaigns can flag it.
                    self.stats.false_alarms += 1
                    counters.incr("resilience.abft.false_alarms")
            if attempt < self.policy.max_retries:
                attempt += 1
                self.stats.retries += 1
                counters.incr("resilience.retries")
                continue
            return self._recover_beyond_retry(instr, event)

    def _execute_once(self, instr: Instruction,
                      event: Optional[FaultEvent], attempt: int) -> bool:
        """One (possibly faulty) execution; returns True on a drop."""
        super().execute(instr)
        if event is None or not (attempt == 0 or event.persistent):
            return False
        if instr.uid not in self._injected_uids:
            self._injected_uids.add(instr.uid)
            self.stats.injected += 1
            counters.incr("resilience.faults.injected")
        if event.kind == FAULT_DROP:
            for dst in instr.dsts:
                self.registers.pop(dst, None)
            return True
        if event.kind in VALUE_KINDS:
            corrupt_registers(self.registers, instr, event)
        return False

    def _verify(self, instr: Instruction) -> Optional[bool]:
        """ABFT check, with the DMR fallback for uncovered opcodes."""
        if self.policy.abft and abft.has_checker(instr.op):
            self.stats.abft_checks += 1
            counters.incr("resilience.abft.checks")
            return abft.check_instruction(instr, self.read,
                                          rtol=self.policy.rtol,
                                          atol=self.policy.atol)
        if not self.policy.dmr_fallback:
            return None
        # Dual modular redundancy in time: re-execute into a scratch
        # file and compare.  A transient fault on the first execution
        # shows up as a mismatch; the re-executed (clean) values stay.
        self.stats.dmr_checks += 1
        counters.incr("resilience.dmr.checks")
        first = {d: self.registers[d] for d in instr.dsts}
        super().execute(instr)
        for dst, before in first.items():
            after = self.registers[dst]
            if before.shape != after.shape or \
                    not np.array_equal(before, after, equal_nan=True):
                return False
        return True

    def _recover_beyond_retry(self, instr: Instruction,
                              event: Optional[FaultEvent]) -> Optional[int]:
        """Retries exhausted: checkpoint replay, then escalation."""
        if self.policy.checkpoint_every and self._checkpoint is not None \
                and instr.uid not in self._restored_for:
            # One restore per site: a detection that survives its own
            # replay (a false alarm, or corruption the replay cannot
            # clear) must escalate rather than loop forever.
            self._restored_for.add(instr.uid)
            index, snapshot = self._checkpoint
            self.registers = dict(snapshot)
            # Model re-execution on a spare unit instance: the stuck-at
            # site no longer participates, so its fault is suppressed
            # for the replay.
            self.plan.suppressed.add(instr.uid)
            self.stats.checkpoint_restores += 1
            self.stats.recovered_checkpoint += 1
            counters.incr("resilience.checkpoint.restores")
            counters.incr("resilience.faults.recovered")
            return index
        self.stats.escalated += 1
        counters.incr("resilience.faults.escalated")
        if self.policy.escalate == ESCALATE_ERROR:
            kind = event.kind if event is not None else "unknown"
            raise FaultInjectionError(
                f"unrecoverable {kind} fault after "
                f"{self.policy.max_retries} retries on {instr.describe()}"
            )
        return None

    def _export_counters(self) -> None:
        counters.incr("resilience.executions")


def execute_with_faults(program: Program, plan: FaultPlan,
                        policy: Optional[RecoveryPolicy] = None,
                        deadline=None
                        ) -> Tuple[Dict[str, np.ndarray], ResilienceStats]:
    """Convenience wrapper: run ``program`` under ``plan`` and ``policy``."""
    executor = ResilientExecutor(plan, policy, deadline=deadline)
    registers = executor.run(program)
    return registers, executor.stats
