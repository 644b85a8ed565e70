"""Constraint-based hardware optimization (Sec. 6.2, Equ. 5).

Solves::

    p_1*, ..., p_n* = argmin L(p_1, ..., p_n)   s.t.   R(p) <= R*

by the paper's greedy critical-resource ascent: start with one instance of
each unit class, then repeatedly simulate the workload, find the unit class
whose extra instance buys the largest latency reduction (per resource, by
default), add it if it still fits, and stop when nothing helps or nothing
fits.  An energy-minimizing objective is also provided (Fig. 20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import HardwareError
from repro.compiler.isa import Program
from repro.hw.accelerator import ALL_UNIT_CLASSES, AcceleratorConfig
from repro.hw.resources import Resources, ZC706


@dataclass
class OptimizationStep:
    """One greedy step: which unit was added and what it bought."""

    added_unit: str
    objective_before: float
    objective_after: float
    resources_after: Resources


@dataclass
class GenerationResult:
    """The generated accelerator plus the search trace."""

    config: AcceleratorConfig
    objective: float
    steps: List[OptimizationStep] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def _as_programs(program_or_programs) -> List[Program]:
    if isinstance(program_or_programs, Program):
        return [program_or_programs]
    programs = list(program_or_programs)
    if not programs:
        raise HardwareError("need at least one workload program")
    return programs


def _latency_objective(programs: List[Program], policy: str) -> Callable:
    from repro.sim.engine import Simulator

    def objective(config: AcceleratorConfig) -> float:
        sim = Simulator(config)
        cycles = [sim.run(p, policy).total_cycles for p in programs]
        return float(sum(cycles)) / len(cycles)

    return objective


def _tail_objective(programs: List[Program], policy: str) -> Callable:
    """Worst-frame latency: the paper's long-tail goal (Sec. 6.2)."""
    from repro.sim.engine import Simulator

    def objective(config: AcceleratorConfig) -> float:
        sim = Simulator(config)
        return float(max(sim.run(p, policy).total_cycles
                         for p in programs))

    return objective


def _energy_objective(programs: List[Program], policy: str) -> Callable:
    from repro.sim.engine import Simulator

    def objective(config: AcceleratorConfig) -> float:
        sim = Simulator(config)
        energies = [sim.run(p, policy).energy_mj for p in programs]
        return sum(energies) / len(energies)

    return objective


def generate_accelerator(
    program,
    budget: Resources = ZC706,
    objective: str = "latency",
    policy: str = "ooo",
    start: Optional[AcceleratorConfig] = None,
    max_steps: int = 32,
) -> GenerationResult:
    """Run the Equ. 5 greedy search for one or more workload programs.

    Parameters
    ----------
    program:
        The compiled application (or a sequence of frame programs) whose
        objective is optimized.  Multi-program workloads enable the
        paper's average-vs-tail distinction.
    budget:
        Hardware resource constraint ``R*`` (default: the full ZC706).
    objective:
        ``"latency"`` — average frame latency (Fig. 19);
        ``"tail"`` — maximum frame latency (the long-tail goal of
        Sec. 6.2); ``"energy"`` — average frame energy (Fig. 20).
    policy:
        Issue policy the accelerator will run (affects the optimum).
    start:
        Starting configuration; default one instance per unit class.
    """
    programs = _as_programs(program)
    if objective == "latency":
        evaluate = _latency_objective(programs, policy)
    elif objective == "tail":
        evaluate = _tail_objective(programs, policy)
    elif objective == "energy":
        evaluate = _energy_objective(programs, policy)
    else:
        raise HardwareError(
            f"objective must be 'latency', 'tail' or 'energy', got "
            f"{objective!r}"
        )

    config = start or AcceleratorConfig()
    if not config.fits(budget):
        raise HardwareError(
            "the minimal one-unit-per-class configuration already exceeds "
            "the resource budget"
        )

    current = evaluate(config)
    steps: List[OptimizationStep] = []

    for _ in range(max_steps):
        best: Optional[Tuple[float, str, AcceleratorConfig, float]] = None
        for unit in ALL_UNIT_CLASSES:
            candidate = config.with_extra_unit(unit)
            if not candidate.fits(budget):
                continue
            value = evaluate(candidate)
            if value >= current:
                continue
            # Normalize by DSP cost so cheap wins beat expensive ties.
            dsp_cost = max(1, candidate.templates[unit].resources.dsp)
            gain = (current - value) / dsp_cost
            if best is None or gain > best[0]:
                best = (gain, unit, candidate, value)
        if best is None:
            break
        # The simulator is deterministic: the winner's value is final.
        _, unit, candidate, value = best
        steps.append(OptimizationStep(unit, current, value,
                                      candidate.resources()))
        config, current = candidate, value

    return GenerationResult(config=config, objective=current, steps=steps)


def dsp_budget(dsp: int) -> Resources:
    """A budget that constrains DSPs only (the Fig. 19/20 sweep axis)."""
    return Resources(lut=10**9, ff=10**9, bram=10**9, dsp=dsp)


def sweep_dsp_constraints(
    program: Program,
    dsp_values: List[int],
    objective: str = "latency",
    policy: str = "ooo",
) -> Dict[int, GenerationResult]:
    """Generate one accelerator per DSP budget (Fig. 19 / Fig. 20 x-axis)."""
    return {
        dsp: generate_accelerator(program, dsp_budget(dsp), objective, policy)
        for dsp in dsp_values
    }
