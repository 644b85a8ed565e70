"""Per-layer host-time ledger, recorded from the benchmark's own files.

:class:`Ledger` installs timing wrappers around the public entry point of
each layer (``apps``, ``optim``, ``factorgraph``, ``compiler``, ``sim``,
``hw``) for the duration of one traced operation and removes them again
afterwards, so untraced operations run the unmodified program.  Nothing
inside ``src/`` is touched.

Every wrapped call becomes a span (layer, start, end, parent).  A span's
*self time* is its duration minus the durations of its direct children;
the operation itself is the root span, and its self time is the
``unattributed`` bucket.  Because every span is closed before its parent,
the self times of one operation telescope to its wall time:

    sum(layer self times) + unattributed == operation wall time

which :meth:`Ledger.end_op` checks for every traced operation.  Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"


class Ledger:
    """In-memory span recorder with per-operation layer totals."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.ops = 0
        self.wall_ns = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.identity_errors: List[str] = []
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._op: Optional[int] = None
        self._op_start = 0

    # -- span bookkeeping ------------------------------------------------
    def _enter(self) -> None:
        # Stack entries: [start_ns, child_ns, span_index, parent_index];
        # the span's slot is reserved now and filled when it closes.
        self._stack.append([time.perf_counter_ns(), 0, len(self.spans),
                            self._stack[-1][2]])
        self.spans.append(None)

    def _exit(self, layer: str) -> None:
        end = time.perf_counter_ns()
        start, child_ns, index, parent = self._stack.pop()
        duration = end - start
        self._stack[-1][1] += duration
        self.spans[index] = (self._op, index, parent, layer, start, end,
                             duration - child_ns)
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1

    def span(self, layer: str, fn: Callable,
             before: Optional[Callable] = None,
             classify: Optional[Callable] = None,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``.

        ``before(args)`` snapshots state ahead of the call;
        ``classify(args, state)`` renames the span at exit;
        ``count(args, result, state)`` adds work counts afterwards.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            ledger._enter()
            name = layer
            try:
                result = fn(*args, **kwargs)
            finally:
                if classify is not None:
                    name = classify(args, state)
                ledger._exit(name)
            if count is not None:
                count(args, result, state)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_op(self, index: int, started_ns: int,
                 install: Callable[["Ledger"], None]) -> None:
        """Open the root span of operation ``index`` and wrap the layers."""
        self._op = index
        self._op_start = started_ns
        self._stack = [[started_ns, 0, len(self.spans), -1]]
        self.spans.append(None)
        install(self)

    def end_op(self, ended_ns: int) -> None:
        """Close the root span; check the accounting identity."""
        self.unpatch()
        if len(self._stack) != 1:
            self.identity_errors.append(
                f"op {self._op}: {len(self._stack) - 1} spans left open")
        _, child_ns, root, _ = self._stack[0]
        wall = ended_ns - self._op_start
        unattributed = wall - child_ns
        self.spans[root] = (self._op, root, -1, UNATTRIBUTED,
                            self._op_start, ended_ns, unattributed)
        self.self_ns[UNATTRIBUTED] += unattributed
        op_spans = self.spans[root:]
        total_self = sum(s[6] for s in op_spans)
        if total_self != wall:
            self.identity_errors.append(
                f"op {self._op}: self times sum to {total_self} ns, "
                f"wall time is {wall} ns")
        if any(s[4] < self._op_start or s[5] > ended_ns for s in op_spans):
            self.identity_errors.append(
                f"op {self._op}: a span lies outside its operation")
        self.ops += 1
        self.wall_ns += wall
        self._stack = []
        self._op = None

    def write(self, path) -> None:
        """Write every span as one JSON line (times in ns)."""
        keys = ("op", "id", "parent", "layer", "start_ns", "end_ns",
                "self_ns")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# ----------------------------------------------------------------------
# The layer boundaries: public entry points only
# ----------------------------------------------------------------------

def install_layers(ledger: Ledger) -> None:
    """Wrap every layer's public entry point (undone by ``unpatch``)."""
    import repro.compiler.fused as fused
    import repro.hw
    import repro.optim
    from repro.apps.base import AlgorithmSpec, RoboticApplication
    from repro.compiler.cache import CompilationCache
    from repro.compiler.executor import Executor
    from repro.factorgraph import FactorGraph, Values
    from repro.sim.engine import Simulator

    span = ledger.span
    ledger.patch(RoboticApplication, "build_graphs",
                 span("apps.build", RoboticApplication.build_graphs))
    ledger.patch(AlgorithmSpec, "build",
                 span("apps.build", AlgorithmSpec.build))
    ledger.patch(RoboticApplication, "compile_frame",
                 span("compiler.frame_compile",
                      RoboticApplication.compile_frame))

    def count_iterations(args, result, state):
        ledger.counts["optim.iterations"] += result.num_iterations

    for name in ("gauss_newton", "levenberg_marquardt"):
        ledger.patch(repro.optim, name,
                     span("optim", getattr(repro.optim, name),
                          count=count_iterations))
    # ``repro.optim.gauss_newton`` names the function, not the module, so
    # the optimizer modules (which bind ``eliminate_and_solve`` at import)
    # are fetched by their full names.
    for module in map(importlib.import_module, (
            "repro.optim.gauss_newton", "repro.optim.levenberg")):
        ledger.patch(module, "eliminate_and_solve",
                     span("factorgraph.eliminate",
                          module.eliminate_and_solve))
    ledger.patch(FactorGraph, "error",
                 span("factorgraph.error", FactorGraph.error))
    ledger.patch(FactorGraph, "linearize",
                 span("factorgraph.linearize", FactorGraph.linearize))
    ledger.patch(Values, "retract",
                 span("factorgraph.retract", Values.retract))

    def cache_outcome(args, hits_before):
        return "compiler.rebind" if args[0].hits > hits_before \
            else "compiler.compile"

    ledger.patch(CompilationCache, "compile",
                 span("compiler.compile", CompilationCache.compile,
                      before=lambda args: args[0].hits,
                      classify=cache_outcome))
    ledger.patch(fused, "build_plan", span("compiler.plan", fused.build_plan))

    def count_execute(args, result, state):
        executor, program = args[0], args[1]
        ledger.counts["compiler.instructions"] += len(program.instructions)
        plan = fused.plan_slot(program).get("plan") \
            if isinstance(executor, fused.FusedExecutor) else None
        ledger.counts["compiler.dispatches"] += plan.dispatch_count() \
            if plan is not None else len(program.instructions)

    for cls in (Executor, fused.FusedExecutor):
        ledger.patch(cls, "run", span("compiler.execute", cls.run,
                                      count=count_execute))

    def count_sim(args, result, state):
        ledger.counts["sim.instructions"] += len(args[1].instructions)

    ledger.patch(Simulator, "run",
                 span("sim.run", Simulator.run, count=count_sim))

    def count_generation(args, result, sims_before):
        # With one workload program, generate_accelerator simulates the
        # start configuration once, every fitting candidate once per
        # step, and each chosen candidate once more.
        inside = ledger.calls["sim.run"] - sims_before
        ledger.counts["hw.steps"] += result.num_steps
        ledger.counts["hw.candidates"] += inside - 1 - result.num_steps

    ledger.patch(repro.hw, "generate_accelerator",
                 span("hw", repro.hw.generate_accelerator,
                      before=lambda args: ledger.calls["sim.run"],
                      count=count_generation))


def layer_metrics(ledger: Ledger, untraced_ops: int,
                  untraced_wall_ns: int) -> Dict[str, Any]:
    """The per-layer metrics: per traced operation, plus the ledger checks.

    Times are milliseconds per operation (a frame, or one accelerator
    generation); counts are per operation too.
    """
    ops = max(ledger.ops, 1)
    calls, counts = ledger.calls, ledger.counts

    def ms(layer: str) -> float:
        return ledger.self_ns[layer] / 1e6 / ops

    def ratio(numerator: float, base: float) -> float:
        return numerator / base if base else 0.0

    cache_calls = calls["compiler.compile"] + calls["compiler.rebind"]
    traced_rate = ratio(ledger.ops, ledger.wall_ns)
    untraced_rate = ratio(untraced_ops, untraced_wall_ns)
    values = {
        "apps.build_ms": (ms("apps.build"), "ms"),
        "optim.self_ms": (ms("optim"), "ms"),
        "optim.iterations": (counts["optim.iterations"] / ops, "count"),
        "factorgraph.error_ms": (ms("factorgraph.error"), "ms"),
        "factorgraph.error_calls": (calls["factorgraph.error"] / ops,
                                    "count"),
        "factorgraph.linearize_ms": (ms("factorgraph.linearize"), "ms"),
        "factorgraph.eliminate_ms": (ms("factorgraph.eliminate"), "ms"),
        "factorgraph.retract_ms": (ms("factorgraph.retract"), "ms"),
        "compiler.cache.hit_ratio": (
            ratio(calls["compiler.rebind"], cache_calls), "fraction"),
        "compiler.cache.calls": (cache_calls / ops, "count"),
        "compiler.cache.misses": (calls["compiler.compile"] / ops, "count"),
        "compiler.compile_ms": (ms("compiler.compile"), "ms"),
        "compiler.rebind_ms": (ms("compiler.rebind"), "ms"),
        "compiler.plan_ms": (ms("compiler.plan"), "ms"),
        "compiler.plan_builds": (calls["compiler.plan"] / ops, "count"),
        "compiler.execute_ms": (ms("compiler.execute"), "ms"),
        "compiler.instructions": (counts["compiler.instructions"] / ops,
                                  "count"),
        "compiler.dispatches": (counts["compiler.dispatches"] / ops,
                                "count"),
        "compiler.frame_compile_ms": (ms("compiler.frame_compile"), "ms"),
        "sim.run_ms": (ms("sim.run"), "ms"),
        "sim.runs": (calls["sim.run"] / ops, "count"),
        "sim.instr_per_s": (ratio(counts["sim.instructions"] * 1e9,
                                  ledger.self_ns["sim.run"]), "1/s"),
        "hw.self_ms": (ms("hw"), "ms"),
        "hw.candidates": (counts["hw.candidates"] / ops, "count"),
        "hw.accept_ratio": (ratio(counts["hw.steps"],
                                  counts["hw.candidates"]), "fraction"),
        "trace.unattributed_ms": (ms(UNATTRIBUTED), "ms"),
        "trace.wall_ms": (ledger.wall_ns / 1e6 / ops, "ms"),
        "trace.unattributed_frac": (
            ratio(ledger.self_ns[UNATTRIBUTED], ledger.wall_ns), "fraction"),
        "trace.overhead_frac": (
            1.0 - ratio(traced_rate, untraced_rate) if untraced_rate
            else 0.0, "fraction"),
        "trace.ops": (ledger.ops, "count"),
        "trace.untraced_ops": (untraced_ops, "count"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
