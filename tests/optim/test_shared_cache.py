"""Optimizer solves share the process compilation cache.

``gauss_newton`` / ``levenberg_marquardt`` on the compiled backends
solve through :func:`repro.compiler.cache.default_cache` with
admit-on-reuse: the first call to see a structure is served by a
private per-call cache, the next call compiles it into the shared cache,
and every call after that only rebinds.  Sharing must never change a
number, and the cache must stay consistent under concurrent solves.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.apps import all_applications
from repro.apps.base import LOCALIZATION, PLANNING
from repro.compiler.cache import (
    CompilationCache,
    clear_default_cache,
    default_cache,
    set_cache_enabled,
)
from repro.optim import gauss_newton, levenberg_marquardt

from tests.diff.util import random_problem

ROOT = Path(__file__).resolve().parents[2]
APPS = {app.name: app for app in all_applications()}
SOLVERS = {"gn": gauss_newton, "lm": levenberg_marquardt}


@pytest.fixture(autouse=True)
def shared_cache():
    previous = set_cache_enabled(True)
    clear_default_cache()
    yield default_cache()
    clear_default_cache()
    set_cache_enabled(previous)


def _counted(fn):
    """``fn()``'s cache-miss and plan-build counts while observing."""
    obs.enable()
    try:
        obs.collector().drain()
        fn()
        snapshot = obs.collector().drain()
    finally:
        obs.disable()
    return (snapshot.counters.get("compiler.cache.miss", 0),
            snapshot.counters.get("fused.plan.build", 0))


def _same_values(a, b):
    assert set(a.keys()) == set(b.keys())
    for key in a.keys():
        left, right = a.at(key), b.at(key)
        if hasattr(left, "phi"):
            assert np.array_equal(left.phi, right.phi), key
            assert np.array_equal(left.t, right.t), key
        else:
            assert np.array_equal(left, right), key


def _app_problem(app_name, algorithm, seed=0):
    return APPS[app_name].build_graphs(seed, [algorithm])[algorithm]


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_call_after_admission_compiles_nothing(method):
    solve = SOLVERS[method]
    graph, values = random_problem(1, 4)
    # The first call is served privately; the second admits the
    # structure (its one cold compile lands in the shared cache).
    solve(graph, values, backend="fused")
    solve(graph, values, backend="fused")
    fresh = random_problem(1, 9)
    misses, plan_builds = _counted(
        lambda: solve(*fresh, backend="fused"))
    assert (misses, plan_builds) == (0, 0)
    assert default_cache().stats()["entries"] == 1


def test_single_call_structure_never_enters_shared_cache():
    graph, values = random_problem(3, 1)
    result = gauss_newton(graph, values, backend="fused")
    assert result.num_iterations > 1
    assert default_cache().stats() == {"hits": 0, "misses": 0,
                                       "entries": 0}


def test_disabled_cache_restores_private_cache_per_call():
    graph, values = random_problem(0, 2)
    previous = set_cache_enabled(False)
    try:
        misses, _ = _counted(lambda: [
            gauss_newton(graph, values, backend="fused")
            for _ in range(3)])
    finally:
        set_cache_enabled(previous)
    assert misses == 3
    assert default_cache().stats() == {"hits": 0, "misses": 0,
                                       "entries": 0}


def test_env_var_disables_sharing():
    script = (
        "from repro.compiler.cache import default_cache\n"
        "from repro.optim import gauss_newton\n"
        "from tests.diff.util import random_problem\n"
        "graph, values = random_problem(0, 2)\n"
        "for _ in range(3):\n"
        "    gauss_newton(graph, values, backend='fused')\n"
        "print(default_cache().stats())\n"
    )
    env = dict(os.environ, REPRO_COMPILE_CACHE="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    child = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                           env=env, capture_output=True, text=True,
                           timeout=120, check=True)
    assert child.stdout.strip() == \
        "{'hits': 0, 'misses': 0, 'entries': 0}"


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_shared_cache_bit_identical_to_disabled(app_name):
    problems = [("gn", _app_problem(app_name, LOCALIZATION)),
                ("lm", _app_problem(app_name, PLANNING))]
    for method, (graph, values) in problems:
        solve = SOLVERS[method]
        previous = set_cache_enabled(False)
        try:
            cold = solve(graph, values, backend="fused")
        finally:
            set_cache_enabled(previous)
        # Private, admitting, then shared-rebind calls.
        for _ in range(3):
            shared = solve(graph, values, backend="fused")
            _same_values(cold.values, shared.values)
            assert shared.final_error == cold.final_error
            assert shared.num_iterations == cold.num_iterations


def test_threaded_solves_match_serial_and_lose_no_counts(monkeypatch):
    jobs = [(name, seed)
            for name in ("MobileRobot", "Manipulator", "AutoVehicle")
            for seed in range(4)]
    problems = {job: _app_problem(job[0], LOCALIZATION, job[1])
                for job in jobs}

    def solve(job):
        return gauss_newton(*problems[job], backend="fused").values

    clear_default_cache()
    serial = {job: solve(job) for job in jobs}
    clear_default_cache()

    # Count every compile call, on the shared cache and on the private
    # caches of deferred calls alike.
    lock = threading.Lock()
    calls = []
    caches = {}
    original = CompilationCache.compile

    def counting(cache, *args, **kwargs):
        with lock:
            calls.append(1)
            caches[id(cache)] = cache
        return original(cache, *args, **kwargs)

    monkeypatch.setattr(CompilationCache, "compile", counting)
    results, errors = {}, []
    barrier = threading.Barrier(4, timeout=60)

    def worker(index):
        try:
            barrier.wait()
            for repeat in range(3):
                for job in jobs[index::4] + jobs[(index + 1) % 4::4]:
                    results[(job, index, repeat)] = solve(job)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(4)]
    # Switch threads as often as possible to widen every race window.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == 4 * 3 * 2 * len(jobs) // 4
    for (job, _, _), values in results.items():
        _same_values(serial[job], values)
    assert sum(c.hits + c.misses for c in caches.values()) == len(calls)
    shared = default_cache().stats()
    assert shared["hits"] > 0 and shared["entries"] >= 1
