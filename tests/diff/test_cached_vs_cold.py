"""Differential test: cached compilation is indistinguishable from cold.

For randomized factor graphs, priming the cache with one graph and then
compiling a second graph with the same structure (different numerics)
must produce an instruction stream identical — field by field — to a
cold compile of the second graph, across register-namespace renames and
algorithm retags, including rebinds through binding tables built on
renamed variants of the template.  The rebound stream must also execute to the same
solution as the reference solver.

Tier-1 runs a small seed subset; the ``slow`` marker covers 60 seeds
(the acceptance sweep).
"""

import numpy as np
import pytest

from repro.compiler import CompilationCache, Executor, compile_graph
from repro.factorgraph import solve

from tests.diff.util import (
    assert_streams_equal,
    dense_reference,
    random_problem,
)


def check_seed(structure_seed):
    """One differential check: prime, rebind, compare to cold."""
    graph_a, values_a = random_problem(structure_seed, structure_seed + 1000)
    graph_b, values_b = random_problem(structure_seed, structure_seed + 2000)

    cache = CompilationCache()
    cache.compile(graph_a, values_a, algorithm="gn", register_prefix="gn#0")

    # Same prefix -> value-only rebind; renamed prefix twice -> the
    # variant path (first builds the renamed template, second shares it).
    targets = [("gn", "gn#0"), ("gn", "gn#1"), ("gn", "gn#1"),
               ("ctl", "ctl#2")]
    for algorithm, prefix in targets:
        rebound = cache.compile(graph_b, values_b, algorithm=algorithm,
                                register_prefix=prefix)
        cold = compile_graph(graph_b, values_b, algorithm=algorithm,
                             register_prefix=prefix)
        assert_streams_equal(rebound.program, cold.program)
        assert rebound.solution_registers == cold.solution_registers
        assert rebound.ordering == cold.ordering

    # A third value set through every binding table: the template's own
    # and the ones built on renamed variants must all bind graph_c's
    # numerics, with nothing left over from graph_a or graph_b.
    graph_c, values_c = random_problem(structure_seed, structure_seed + 3000)
    for algorithm, prefix in dict.fromkeys(targets):
        rebound_c = cache.compile(graph_c, values_c, algorithm=algorithm,
                                  register_prefix=prefix)
        cold_c = compile_graph(graph_c, values_c, algorithm=algorithm,
                               register_prefix=prefix)
        assert_streams_equal(rebound_c.program, cold_c.program)
        assert rebound_c.solution_registers == cold_c.solution_registers

    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == len(targets) + len(set(targets))

    # The last rebound stream still solves the right system.
    registers = Executor().run(rebound.program)
    result = rebound.extract_solution(registers)
    linear = graph_b.linearize(values_b)
    expected, _ = solve(linear, rebound.ordering)
    dense = dense_reference(graph_b, values_b)
    for key in expected:
        assert np.allclose(result[key], expected[key], atol=1e-8)
        assert np.allclose(result[key], dense[key], atol=1e-6)


@pytest.mark.parametrize("structure_seed", range(6))
def test_cached_equals_cold(structure_seed):
    check_seed(structure_seed)


@pytest.mark.slow
@pytest.mark.parametrize("structure_seed", range(60))
def test_cached_equals_cold_sweep(structure_seed):
    check_seed(structure_seed)
