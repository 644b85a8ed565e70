"""Compiled linear-solve backend for the optimizer loops.

The reference Gauss-Newton/LM loops linearize and solve with the numpy
elimination path.  This backend instead routes each iteration's solve
through the ORIANNA compiler: the first iteration compiles the graph to
an instruction program (codegen + QR schedule + ordering search), and
every subsequent iteration *rebinds* the cached template with the fresh
linearization point — the compile-once/bind-many execution model of the
accelerator (Fig. 3), at host-software scale.  Templates outlive one
optimizer call: solvers share the process compilation cache, which
admits a structure once a second call sees it.

LM damping is expressed inside the factor-graph abstraction: each trial
appends per-variable :class:`~repro.factors.PriorFactor` rows anchored
at the current estimate with ``sigma = 1/sqrt(lambda)``.  At the
linearization point the prior's error is zero and its Jacobian exactly
the identity, so the damped rows are ``sqrt(lambda) * I`` with zero RHS
— the same system the reference :func:`repro.optim.levenberg.
damped_graph` builds, but structure-stable across iterations *and*
lambda trials, so every damped solve after the first is a cache hit.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values


class CompiledSolver:
    """Compile-once/bind-many linear solver for optimizer iterations.

    ``executor`` selects the value-domain backend by name
    (``"interpreter"`` or ``"fused"``); when ``None`` the process
    default applies (``REPRO_EXECUTOR`` / :func:`repro.compiler.fused.
    set_default_executor`), so CLI ``--executor`` switches reach every
    compiled solve without plumbing.

    ``executor_factory`` swaps the functional executor for a hardened
    (or fault-injecting) one — e.g. ``lambda: ResilientExecutor(plan,
    policy)`` from :mod:`repro.resilience.executor`.  An executor that
    escalates an unrecoverable fault raises
    :class:`~repro.errors.FaultInjectionError`, which the safeguarded
    optimizer loops catch and degrade on.  An explicit factory takes
    precedence: fault injection and tiered recovery are defined per
    instruction, so when one is installed while the fused backend is
    requested, the solver falls back to the instruction-level path,
    warns once per structure, and counts a
    ``resilience.supervisor.fallback`` obs event with the reason.
    """

    def __init__(self, cache=None, executor_factory=None,
                 executor: Optional[str] = None):
        from repro.compiler.cache import (
            CompilationCache, FactorConstants, cache_enabled, default_cache)
        from repro.compiler.fused import _validate_name

        # An injected cache serves every solve.  Otherwise solves share
        # the process cache (unless disabled), which admits a structure
        # on its second optimizer call: the first call to see it is
        # served by a private cache (see CompilationCache.admits).
        self._admitting = cache is None and cache_enabled()
        if cache is None:
            cache = default_cache() if self._admitting \
                else CompilationCache()
        self.cache = cache
        self.executor_factory = executor_factory
        self.executor = None if executor is None else _validate_name(executor)
        # Structure fingerprints whose fused→interpreter fallback has
        # already been logged (the event fires once per structure).
        self._fallback_logged = set()
        # One optimizer call's worth of reuse: the structure of the
        # graph last solved, and the factor constants bound into its
        # template (see repro.compiler.cache.FactorConstants).
        self._structure = None
        self._constants = FactorConstants()

    def _wants_fused(self) -> bool:
        from repro.compiler import fused

        return (self.executor or fused.default_executor_name()) == \
            fused.EXECUTOR_FUSED

    def _note_factory_fallback(self, fingerprint: str) -> None:
        """Count (and warn about) the fused→instruction-level fallback.

        Fires once per structure fingerprint: the condition is a
        property of the (solver, structure) pair, and a serving process
        rebinding the same template thousands of times must not flood
        the warning stream — but the obs counter records every distinct
        structure that lost its fused plan to the override.
        """
        from repro.obs import counters, trace

        if fingerprint in self._fallback_logged:
            return
        self._fallback_logged.add(fingerprint)
        reason = ("explicit executor_factory installed; fault injection "
                  "and hardened execution are per-instruction")
        counters.incr("resilience.supervisor.fallback")
        with trace.span("resilience.supervisor.fallback",
                        category="resilience", reason=reason,
                        fingerprint=fingerprint):
            pass
        warnings.warn(
            "fused executor requested, but an explicit "
            "executor_factory is installed (fault injection / "
            "hardened execution is per-instruction); falling "
            "back to the instruction-level path",
            RuntimeWarning, stacklevel=4)

    def _resolve_factory(self, structure=None):
        from repro.compiler import fused

        if self.executor_factory is not None:
            if self._wants_fused():
                self._note_factory_fallback(
                    structure.fingerprint[:12] if structure else "")
            return self.executor_factory
        return fused.executor_factory(self.executor)

    def _executor_label(self) -> str:
        """The fleet ``executor`` label for this solver's value backend."""
        from repro.compiler import fused

        if self.executor_factory is not None:
            return "custom"
        return self.executor or fused.default_executor_name()

    def _structure_of(self, graph: FactorGraph, values: Values,
                      ordering: Optional[Sequence[Key]]):
        """The graph's structure, computed once per graph object.

        Gauss-Newton solves one graph every iteration, and retracting
        the estimate never changes its structure; graphs only grow, so
        a changed factor count means a new structure.
        """
        from repro.compiler.cache import graph_structure

        last = self._structure
        if last is not None and last[0] is graph \
                and last[1] == len(graph) and last[2] is ordering:
            return last[3]
        structure = graph_structure(graph, values, ordering)
        self._structure = (graph, len(graph), ordering, structure)
        return structure

    def solve(self, graph: FactorGraph, values: Values,
              ordering: Optional[Sequence[Key]] = None
              ) -> Dict[Key, np.ndarray]:
        """One linear solve: compile (or rebind) and execute."""
        from repro.obs import fleet, trace

        registry = fleet.active()
        if registry is not None:
            import time

            started = time.perf_counter()
        structure = self._structure_of(graph, values, ordering)
        with trace.span("solve.compile", category="host.phase") as sp:
            if self._admitting and not self.cache.admits(structure.key):
                # Deferred: this call, and the rest of it, compiles
                # into a private cache.
                from repro.compiler.cache import CompilationCache

                self.cache = CompilationCache()
                self._admitting = False
            compiled = self.cache.compile(graph, values, ordering,
                                          structure=structure,
                                          constants=self._constants)
            sp.set(kind=structure.outcome)
        factory = self._resolve_factory(structure)
        with trace.span("solve.execute", category="host.phase",
                        instructions=len(compiled.program)):
            registers = factory().run(compiled.program)
        if registry is not None:
            executor = self._executor_label()
            registry.incr(fleet.M_SOLVE_TOTAL, executor=executor)
            registry.observe(fleet.M_SOLVE_LATENCY,
                             time.perf_counter() - started,
                             executor=executor)
        return compiled.extract_solution(registers)


def damped_nonlinear_graph(graph: FactorGraph, values: Values,
                           lam: float) -> FactorGraph:
    """``graph`` plus per-variable damping priors at the current estimate.

    Linearizes to exactly the ``sqrt(lambda) * I`` rows of the reference
    LM damping; the graph's *structure* is independent of ``lambda`` and
    of ``values``, which is what makes trial solves cacheable.
    """
    from repro.factorgraph.noise import Isotropic
    from repro.factors import PriorFactor

    damped = FactorGraph(list(graph.factors))
    sigma = 1.0 / float(np.sqrt(lam))
    for key in graph.keys():
        dim = values.dim(key)
        damped.add(PriorFactor(key, values.at(key), Isotropic(dim, sigma)))
    return damped
