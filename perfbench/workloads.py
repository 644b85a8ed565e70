"""The four benchmark workloads, as closed loops through public APIs.

One robot, one thread: the next operation starts when the previous one
finishes.  An *operation* is a frame in the three solve workloads and a
frame program taken through accelerator generation in
``accel_generation``.  Every operation's inputs derive from the workload
seed, so the same seed replays the same inputs.

- ``steady_frames``: MobileRobot, Manipulator and AutoVehicle in
  round-robin on the fused backend.  Structures repeat, numbers are fresh,
  so the compile-cache / rebind / fused-execute path does the work.
- ``reference_frames``: the same frames on the reference backend.  It
  bypasses the compiler, so ``factorgraph`` linearize and elimination do
  the work; it is the denominator of the "ratio to reference".
- ``churn_frames``: Quadrotor on the fused backend.  VIO localization
  changes structure every frame (cold compile, plan build, EMBED-heavy
  execute) while control and planning stay stable.
- ``accel_generation``: the Fig. 19 flow on Manipulator and MobileRobot:
  compile the frame, generate an accelerator at one DSP budget under the
  out-of-order policy, and evaluate the design under the sequential
  (ORIANNA-IO) controller.  ``repro.sim`` and ``repro.hw`` do the work.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.hw
import repro.optim
from repro.apps import all_applications
from repro.apps.base import PLANNING
from repro.apps.seeding import stable_seed
from repro.eval.experiments import ORIANNA_CONFIG
from repro.sim import Simulator

import ledger as ledger_mod
import oracle
from hostspeed import HostSpeed

FRAME_WORKLOADS = {
    "steady_frames": (("MobileRobot", "Manipulator", "AutoVehicle"),
                      "fused"),
    "reference_frames": (("MobileRobot", "Manipulator", "AutoVehicle"),
                         "reference"),
    "churn_frames": (("Quadrotor",), "fused"),
}
ACCEL_APPS = ("Manipulator", "MobileRobot")
WORKLOADS = tuple(FRAME_WORKLOADS) + ("accel_generation",)

# One budget on the Fig. 19 DSP axis (450/600/750/900).  The smallest
# needs seven out-of-order simulations per generation, which keeps one
# MobileRobot generation at 10-15 s on one core.
DSP_BUDGET = 450
# Frame seeds are ``seed * SEED_STRIDE + index``.  Warm-up frames are
# the same for every seed, so that set-up time measures the same work in
# every run, and sit above every timed index of seed 0.
SEED_STRIDE = 100_000
WARMUP_SEED = 90_000
# Set-up is repeated this many times and the median reported.
SETUP_REPEATS = 5
# The oracle re-solves every frame whose per-app index is a multiple of
# this (index 0 always, which includes a planning solve).
ORACLE_STRIDE = 12


@dataclass
class Solve:
    algorithm: str
    graph: Any
    initial: Any
    result: Any = None


@dataclass
class Outcome:
    """What one run measured and checked."""

    op_ms: List[float] = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: Dict[int, List[str]] = field(default_factory=dict)
    setup_reps_s: List[float] = field(default_factory=list)
    # perf_counter_ns at the start and end of each warm-up and operation.
    setup_spans_ns: List[Tuple[int, int]] = field(default_factory=list)
    op_spans_ns: List[Tuple[int, int]] = field(default_factory=list)
    # (operation, seconds) of each completed generation round.
    generation_s: List[Tuple[int, float]] = field(default_factory=list)
    sim_ms: List[float] = field(default_factory=list)
    untraced_ops: int = 0
    untraced_wall_ns: int = 0
    ledger: Optional[ledger_mod.Ledger] = None
    # Host speed samples (untraced runs only): see ``hostspeed``.
    host: Optional[HostSpeed] = None

    def fail(self, op: int, problems: List[str]) -> None:
        if problems:
            self.failed.setdefault(op, []).extend(problems)

    @property
    def completed(self) -> int:
        """Timed operations that neither raised nor failed a check."""
        ops = len(self.op_ms)
        return ops - sum(1 for op in self.failed if op < ops)


def _apps(names) -> List:
    by_name = {app.name: app for app in all_applications()}
    return [by_name[name] for name in names]


def _solver(algorithm: str) -> Callable:
    # Looked up on every call so a traced operation sees the wrappers.
    if algorithm == PLANNING:
        return repro.optim.levenberg_marquardt
    return repro.optim.gauss_newton


def build_frame(app, frame_seed: int, planning: bool) -> List[Solve]:
    """One base-rate tick's graphs: every algorithm at or above the base
    rate as often as :meth:`frame_composition` says, plus planning when
    due."""
    composition = app.frame_composition()
    once = [name for name, n in composition.items() if n == 1]
    graphs = app.build_graphs(frame_seed,
                              once + ([PLANNING] if planning else []))
    solves = [Solve(name, *graphs[name]) for name in once]
    for name, repeats in composition.items():
        if repeats > 1:
            spec = app.spec(name)
            for r in range(repeats):
                rng = np.random.default_rng(
                    stable_seed(app.name, name, frame_seed, r))
                solves.append(Solve(name, *spec.build(rng)))
    if planning:
        solves.append(Solve(PLANNING, *graphs[PLANNING]))
    return solves


def run_frame(app, frame_seed: int, planning: bool, backend: str,
              host: Optional[HostSpeed] = None) -> List[Solve]:
    """Build and solve one frame; ``host`` is sampled between solves."""
    solves = build_frame(app, frame_seed, planning)
    for solve in solves:
        if host:
            host.pause()
        solve.result = _solver(solve.algorithm)(solve.graph, solve.initial,
                                                backend=backend)
    return solves


def check_frame(solves: List[Solve], backend: str) -> List[str]:
    """Full oracle for one frame: the other backend and a dense solve."""
    other = "reference" if backend != "reference" else "fused"
    lm_params = repro.optim.LevenbergParams()
    problems = []
    for solve in solves:
        label = f"{solve.algorithm} ({backend} vs {other})"
        again = _solver(solve.algorithm)(solve.graph, solve.initial,
                                         backend=other)
        problems += oracle.same_solution(solve.result, again, label)
        problems += oracle.first_step(
            solve.graph, solve.initial, solve.result,
            lm_params if solve.algorithm == PLANNING else None)
    return problems


def _error(exc: BaseException) -> List[str]:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return [f"{type(exc).__name__}: {exc} (at {where.filename}:"
            f"{where.lineno} in {where.name})"]


class _SimTimer:
    """Times every ``Simulator.run`` while active (untraced runs too:
    one clock pair per simulation of at least tens of milliseconds), and
    samples the host speed after each, so that a generation of many
    seconds is measured at the speed the host ran it."""

    def __init__(self, sink: List[float], host: Optional[HostSpeed]):
        self.sink = sink
        self.host = host

    def __enter__(self):
        original = self.original = Simulator.run
        sink, host = self.sink, self.host

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink.append((time.perf_counter() - started) * 1e3)
                if host:
                    host.pause()

        Simulator.run = timed
        return self

    def __exit__(self, *exc):
        Simulator.run = self.original


def generate_design(app, frame_seed: int, sim_ms: List[float],
                    host: Optional[HostSpeed]
                    ) -> Tuple[Any, Any, Any, float]:
    """Compile one frame, generate its accelerator, evaluate it under the
    sequential controller.  Returns the program, the generation, the
    evaluation and the compile+generate seconds (host samples taken in
    between left out)."""
    started = time.perf_counter_ns()
    sampled_ns = host.sampling_ns if host else 0
    program = app.compile_frame(frame_seed)
    with _SimTimer(sim_ms, host):
        generation = repro.hw.generate_accelerator(
            program, repro.hw.dsp_budget(DSP_BUDGET), objective="latency",
            policy="ooo")
    sampled_ns = (host.sampling_ns if host else 0) - sampled_ns
    generated_s = (time.perf_counter_ns() - started - sampled_ns) / 1e9
    evaluation = Simulator(generation.config).run(program, "sequential")
    return program, generation, evaluation, generated_s


def check_design(generation, evaluation) -> List[str]:
    problems = oracle.generated_design(generation,
                                       repro.hw.dsp_budget(DSP_BUDGET))
    if not evaluation.total_cycles > 0:
        problems.append("sequential evaluation reports no cycles")
    return problems


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def _warm_up(workload: str, app, warm_seed: int,
             host: Optional[HostSpeed]) -> None:
    if workload in FRAME_WORKLOADS:
        # Planning is due on a frame's first tick, so this one frame
        # covers every algorithm's structure.
        backend = FRAME_WORKLOADS[workload][1]
        for solve in run_frame(app, warm_seed, True, backend, host):
            problems = oracle.solve_output(solve.result)
            if problems:
                raise RuntimeError(f"warm-up {app.name}: {problems}")
    else:
        program = app.compile_frame(warm_seed)
        Simulator(ORIANNA_CONFIG).run(program, "sequential")
    if host:
        host.pause()


def _setup(workload: str, out: Outcome) -> None:
    """Warm-up: one operation per app and structure, repeated."""
    names = (FRAME_WORKLOADS[workload][0] if workload in FRAME_WORKLOADS
             else ACCEL_APPS)
    host = out.host
    for rep in range(SETUP_REPEATS):
        if host:
            host.take_sampling_ns()
            host.start()
        started = time.perf_counter_ns()
        for app in _apps(names):
            _warm_up(workload, app, WARMUP_SEED + rep, host)
        ended = time.perf_counter_ns()
        out.setup_spans_ns.append((started, ended))
        out.setup_reps_s.append(
            (ended - started - (host.take_sampling_ns() if host else 0))
            / 1e9)


# ----------------------------------------------------------------------
# The timed loops
# ----------------------------------------------------------------------

def _units(seconds: float, out: Outcome):
    """Yield once per unit of work (a frame, or a generation round).

    Another unit starts while it is expected, at the length of the last
    one, to end nearer ``seconds`` of timed operations than stopping now
    would.  Checks between operations are not counted.  The first unit
    always runs.
    """
    while True:
        before = out.timed_s
        yield
        last = out.timed_s - before
        if out.timed_s + last / 2 > seconds:
            return


def _timed_op(out: Outcome, index: int, traced: bool, body: Callable):
    """Run ``body`` as one operation; returns (value, error problems)."""
    out.attempted += 1
    if out.host:
        out.host.take_sampling_ns()
        out.host.start()
    started = time.perf_counter_ns()
    if traced:
        out.ledger.begin_op(index, started, ledger_mod.install_layers)
    value, problems = None, []
    try:
        value = body()
    except Exception as exc:  # a failed operation is counted, not fatal
        problems = _error(exc)
    ended = time.perf_counter_ns()
    if traced:
        out.ledger.end_op(ended)
    else:
        out.untraced_ops += 1
        out.untraced_wall_ns += ended - started
    # Host samples taken inside the operation are not its work.
    op_ns = ended - started - (out.host.take_sampling_ns() if out.host
                               else 0)
    out.op_spans_ns.append((started, ended))
    out.op_ms.append(op_ns / 1e6)
    out.timed_s += op_ns / 1e9
    if out.host:
        out.host.pause()
    out.fail(index, problems)
    return value, problems


def _frame_loop(workload: str, seed: int, seconds: float, trace: bool,
                out: Outcome) -> None:
    names, backend = FRAME_WORKLOADS[workload]
    apps = _apps(names)
    index = 0
    for _ in _units(seconds, out):
        app = apps[index % len(apps)]
        tick = index // len(apps)
        period = app.planning_period()
        # Traced runs alternate frames, and planning frames among
        # themselves, so both halves see the same mix of frames.
        traced = trace and (tick // period + tick % period) % 2 == 0
        solves, problems = _timed_op(
            out, index, traced,
            lambda: run_frame(app, seed * SEED_STRIDE + tick,
                              tick % period == 0, backend, out.host))
        if not problems:
            for solve in solves:
                out.fail(index, oracle.solve_output(solve.result))
            # Checked now, untimed, so no frame outlives its tick.
            if tick % ORACLE_STRIDE == 0:
                try:
                    out.fail(index, check_frame(solves, backend))
                except Exception as exc:
                    out.fail(index, _error(exc))
        index += 1


def _accel_loop(seed: int, seconds: float, trace: bool, root,
                out: Outcome) -> None:
    apps = _apps(ACCEL_APPS)
    seed_zero: List[Tuple[int, Any, Any]] = []
    index = 0
    for _ in _units(seconds, out):
        frame_seed = seed * SEED_STRIDE + index
        traced = trace and index % 2 == 0
        designs, problems = _timed_op(
            out, index, traced,
            lambda: [generate_design(app, frame_seed, out.sim_ms, out.host)
                     for app in apps])
        if not problems:
            for app, (program, generation, evaluation, _) in zip(apps,
                                                                 designs):
                out.fail(index, check_design(generation, evaluation))
                if frame_seed == 0:
                    seed_zero.append((index, app.name, program))
            if index not in out.failed:
                out.generation_s.append(
                    (index, sum(d[3] for d in designs)))
        index += 1
    if seed_zero:
        baseline = oracle.load_cycle_baseline(root)
        for op, name, program in seed_zero:
            result = Simulator(ORIANNA_CONFIG).run(program, "ooo")
            out.fail(op, oracle.matches_cycle_baseline(name, result,
                                                       baseline))


def run(workload: str, seed: int, seconds: float, trace: bool,
        root) -> Outcome:
    """Set up, then run ``workload`` for ``seconds`` of operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of "
                         f"{', '.join(WORKLOADS)}")
    out = Outcome(ledger=ledger_mod.Ledger() if trace else None,
                  host=None if trace else HostSpeed())
    _setup(workload, out)
    if workload in FRAME_WORKLOADS:
        _frame_loop(workload, seed, seconds, trace, out)
    else:
        _accel_loop(seed, seconds, trace, root, out)
    return out


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; one value is its own)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
