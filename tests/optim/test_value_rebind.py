"""Value-only rebind: factor constants once per optimizer call.

A cache hit rewrites only the value-bearing rows of a template's binding
table.  Factor-side rows (whitening matrices, measurements, model
matrices) are resolved once per optimizer call and carried across its
iterations and Levenberg-Marquardt damping trials; variable rows are
re-read every rebind.  None of it may change a number: rebound solves
stay bit-identical to cache-disabled ones, across calls with new
measurements on one structure and across re-solves of one graph.
"""

from collections import Counter

import numpy as np
import pytest

import repro.compiler.codegen as codegen
import repro.compiler.library as library
import repro.obs as obs
from repro.apps import all_applications
from repro.apps.base import CONTROL, LOCALIZATION, PLANNING
from repro.compiler import Executor, compile_graph
from repro.compiler.cache import (
    OUTCOME_COMPILE,
    CompilationCache,
    clear_default_cache,
    default_cache,
    graph_structure,
    set_cache_enabled,
)
from repro.optim import (
    GaussNewtonParams,
    LevenbergParams,
    gauss_newton,
    levenberg_marquardt,
)
from repro.optim.compiled import CompiledSolver
from repro.resilience.supervisor import SupervisedSolver

from tests.diff.util import random_problem

APPS = {app.name: app for app in all_applications()}


@pytest.fixture(autouse=True)
def shared_cache():
    previous = set_cache_enabled(True)
    clear_default_cache()
    yield default_cache()
    clear_default_cache()
    set_cache_enabled(previous)


def _problem(app_name, algorithm, seed=0):
    return APPS[app_name].build_graphs(seed, [algorithm])[algorithm]


def _fingerprint(result):
    """Bit-exact summary of a solve: iteration records and final values."""
    parts = [repr(result.iterations), repr(result.converged)]
    for key in sorted(result.values.keys()):
        value = result.values.at(key)
        if hasattr(value, "phi"):
            parts += [value.phi.tobytes(), value.t.tobytes()]
        else:
            parts.append(np.asarray(value).tobytes())
    return parts


def _counting(monkeypatch, name, modules):
    """Count calls of ``name`` (by factor identity) on ``modules``."""
    calls = Counter()
    original = getattr(library, name)

    def counted(factor):
        calls[id(factor)] += 1
        return original(factor)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _exact_iterations(k):
    """Run exactly ``k`` Gauss-Newton iterations (no early stop)."""
    return GaussNewtonParams(max_iterations=k, absolute_error_tol=0.0,
                             relative_error_tol=0.0, step_tol=0.0)


class TestConstantsOncePerCall:
    @pytest.mark.parametrize("app_name", ["MobileRobot", "AutoVehicle"])
    @pytest.mark.parametrize("algorithm", [LOCALIZATION, CONTROL])
    def test_gauss_newton_count_does_not_grow_with_iterations(
            self, monkeypatch, app_name, algorithm):
        graph, values = _problem(app_name, algorithm)
        library_factors = sum(
            library.factor_expression(f) is not None for f in graph)
        # Private call, then the admitting call: the structure is cached.
        gauss_newton(graph, values, backend="fused")
        gauss_newton(graph, values, backend="fused")
        counts = {}
        for k in (2, 6):
            expressions = _counting(monkeypatch, "factor_expression",
                                    (library, codegen))
            constants = _counting(monkeypatch, "factor_constants",
                                  (library,))
            result = gauss_newton(graph, values, _exact_iterations(k),
                                  backend="fused")
            assert result.num_iterations == k
            # At most one resolution per library factor per call; no
            # expression DAG is rebuilt at all on a cache hit (the
            # structure probe of non-library types is per type).
            assert max(constants.values(), default=0) <= 1
            assert sum(constants.values()) <= library_factors
            assert sum(expressions.values()) <= len(graph) - library_factors
            counts[k] = (sum(expressions.values()), sum(constants.values()))
        assert counts[2] == counts[6]

    def test_cold_call_builds_each_dag_once(self, monkeypatch):
        graph, values = _problem("MobileRobot", CONTROL)
        expressions = _counting(monkeypatch, "factor_expression",
                                (library, codegen))
        gauss_newton(graph, values, _exact_iterations(4), backend="fused")
        # One DAG per factor for the cold compile, none for the rebinds.
        assert max(expressions.values()) == 1

    def test_levenberg_trials_reuse_original_factors(self, monkeypatch):
        graph, values = _problem("MobileRobot", PLANNING)
        levenberg_marquardt(graph, values, backend="fused")
        levenberg_marquardt(graph, values, backend="fused")
        originals = [id(f) for f in graph
                     if library.factor_constants(f) is not None]
        constants = _counting(monkeypatch, "factor_constants", (library,))
        trials = Counter()
        import repro.optim.compiled as compiled

        original_damped = compiled.damped_nonlinear_graph

        def damped(*args):
            trials["n"] += 1
            return original_damped(*args)

        monkeypatch.setattr(compiled, "damped_nonlinear_graph", damped)
        result = levenberg_marquardt(graph, values, LevenbergParams(
            max_iterations=4, absolute_error_tol=0.0,
            relative_error_tol=0.0, step_tol=0.0), backend="fused")
        assert trials["n"] >= result.num_iterations >= 2
        # Each original factor is resolved once for the whole call; the
        # per-trial damping priors are the only factors resolved again.
        assert originals
        assert all(constants[fid] <= 1 for fid in originals)
        assert sum(constants[fid] for fid in originals) == len(originals)
        priors = sum(constants.values()) - len(originals)
        assert priors == trials["n"] * len(graph.keys())


class TestNoStaleNumerics:
    @staticmethod
    def _cold(solve, graph, values, params=None):
        previous = set_cache_enabled(False)
        try:
            return solve(graph, values, params, backend="fused")
        finally:
            set_cache_enabled(previous)

    @pytest.mark.parametrize("solve,algorithm", [
        (gauss_newton, LOCALIZATION),
        (levenberg_marquardt, PLANNING),
    ], ids=["gn", "lm"])
    @pytest.mark.parametrize("app_name", ["MobileRobot", "AutoVehicle"])
    def test_new_measurements_on_one_structure(self, solve, algorithm,
                                               app_name):
        problems = [_problem(app_name, algorithm, seed)
                    for seed in range(4)]
        keys = {graph_structure(*p).key for p in problems}
        assert len(keys) == 1, "seeds must share one structure"
        # Admit the structure, then solve new measurements through it.
        solve(*problems[0], backend="fused")
        solve(*problems[0], backend="fused")
        hits = default_cache().stats()["hits"]
        for graph, values in problems[1:]:
            shared = solve(graph, values, backend="fused")
            assert _fingerprint(shared) == \
                _fingerprint(self._cold(solve, graph, values))
        assert default_cache().stats()["hits"] > hits
        assert default_cache().stats()["misses"] == 1

    @pytest.mark.parametrize("structure_seed", range(3))
    def test_random_structures_gn_then_lm(self, structure_seed):
        problems = [random_problem(structure_seed, structure_seed + v)
                    for v in (10, 20, 30, 40)]
        for solve in (gauss_newton, levenberg_marquardt):
            for graph, values in problems:
                shared = solve(graph, values, backend="fused")
                assert _fingerprint(shared) == \
                    _fingerprint(self._cold(solve, graph, values))

    @pytest.mark.parametrize("app_name,algorithm", [
        ("MobileRobot", PLANNING),  # EMBED rows (collision, limits)
        ("Manipulator", LOCALIZATION),
    ])
    def test_resolve_graph_from_new_initial_values(self, app_name,
                                                   algorithm):
        graph, values = _problem(app_name, algorithm)
        solver = CompiledSolver(cache=CompilationCache(), executor="fused")
        rng = np.random.default_rng(5)
        starts = [values] + [
            values.retract({k: 0.05 * rng.standard_normal(values.dim(k))
                            for k in values.keys()})
            for _ in range(2)]
        for start in starts:
            delta = solver.solve(graph, start)
            cold = compile_graph(graph, start)
            want = cold.extract_solution(Executor().run(cold.program))
            assert set(delta) == set(want)
            for key in want:
                assert np.array_equal(delta[key], want[key]), key
        assert solver.cache.stats() == {"hits": 2, "misses": 1,
                                        "entries": 1}


class TestCompileOutcome:
    @pytest.mark.parametrize("make_solver", [
        lambda cache: CompiledSolver(cache=cache, executor="fused"),
        lambda cache: SupervisedSolver(cache=cache, sleep=lambda s: None),
    ], ids=["compiled", "supervised"])
    def test_hit_inside_cold_compile_window(self, monkeypatch, make_solver):
        """Another caller's hit during a cold compile does not turn the
        cold compile into a "rebind" span."""
        cache = CompilationCache()
        cache.compile(*random_problem(0, 1))  # structure A is cached
        other = random_problem(0, 2)
        original = codegen.compile_graph
        inner = []

        def compile_with_interleaved_hit(*args, **kwargs):
            if not inner:
                inner.append(cache.compile(*other))  # a hit on A
            return original(*args, **kwargs)

        monkeypatch.setattr(codegen, "compile_graph",
                            compile_with_interleaved_hit)
        graph, values = random_problem(1, 3)  # structure B: cold
        solver = make_solver(cache)
        obs.enable()
        try:
            obs.collector().drain()
            solver.solve(graph, values)
            snapshot = obs.collector().drain()
        finally:
            obs.disable()
        assert inner and cache.stats()["hits"] == 1
        kinds = [s.args.get("kind") for s in snapshot.spans
                 if s.name == "solve.compile"]
        assert kinds == [OUTCOME_COMPILE]
