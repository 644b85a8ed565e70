"""Tests for the structure-keyed compilation cache (compile-once/bind-many).

Covers cache keying edge cases (same structure/different values hits;
noise-dimension, added-factor, ordering, variable-dimension changes
miss), provenance preservation across rebind, the obs counters, LRU
eviction, and the process-wide enable toggle.
"""

import sys
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.compiler import (
    BindingTable,
    CompilationCache,
    cache_enabled,
    cached_compile_graph,
    clear_default_cache,
    compile_graph,
    default_cache,
    factor_constants,
    graph_structure,
    set_cache_enabled,
    structural_fingerprint,
)
from repro.compiler.isa import Opcode
from repro.factorgraph import FactorGraph, Isotropic, Values, X, Y
from repro.factors import BetweenFactor, GPSFactor, PriorFactor
from repro.geometry import Pose


def chain(value_seed=0, num_poses=3, space=3, sigma=0.2, with_gps=False):
    rng = np.random.default_rng(value_seed)
    graph = FactorGraph()
    values = Values()
    poses = [Pose.random(space, rng) for _ in range(num_poses)]
    dim = poses[0].dim
    graph.add(PriorFactor(X(0), poses[0], Isotropic(dim, 0.1)))
    values.insert(X(0), poses[0].retract(0.05 * rng.standard_normal(dim)))
    for i in range(1, num_poses):
        graph.add(BetweenFactor(X(i), X(i - 1),
                                poses[i].ominus(poses[i - 1]),
                                Isotropic(dim, sigma)))
        values.insert(X(i), poses[i].retract(0.05 * rng.standard_normal(dim)))
    if with_gps:
        graph.add(GPSFactor(X(1), poses[1].t, Isotropic(space, 0.3)))
    return graph, values


class TestKeying:
    def test_same_structure_different_values_hits(self):
        g1, v1 = chain(0)
        g2, v2 = chain(99)
        assert structural_fingerprint(g1, v1) == structural_fingerprint(g2, v2)
        cache = CompilationCache()
        cache.compile(g1, v1)
        cache.compile(g2, v2)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_different_noise_sigma_same_structure_hits(self):
        # Noise *values* are numerics, not structure.
        g1, v1 = chain(0, sigma=0.2)
        g2, v2 = chain(0, sigma=0.9)
        assert structural_fingerprint(g1, v1) == structural_fingerprint(g2, v2)

    def test_added_factor_misses(self):
        g1, v1 = chain(0)
        g2, v2 = chain(0, with_gps=True)
        assert structural_fingerprint(g1, v1) != structural_fingerprint(g2, v2)

    def test_changed_variable_dims_miss(self):
        g2d = chain(0, space=2)
        g3d = chain(0, space=3)
        assert structural_fingerprint(*g2d) != structural_fingerprint(*g3d)

    def test_changed_ordering_misses(self):
        graph, values = chain(0)
        keys = list(graph.keys())
        fp_default = structural_fingerprint(graph, values)
        fp_forward = structural_fingerprint(graph, values, keys)
        fp_reverse = structural_fingerprint(graph, values, keys[::-1])
        assert len({fp_default, fp_forward, fp_reverse}) == 3

    def test_changed_noise_dims_miss(self):
        graph, values = chain(0)
        g2 = FactorGraph()
        for f in graph.factors:
            g2.add(f)
        g2.add(PriorFactor(Y(0), np.zeros(2), Isotropic(2, 1.0)))
        v2 = values.copy()
        v2.insert(Y(0), np.zeros(2))
        assert structural_fingerprint(graph, values) \
            != structural_fingerprint(g2, v2)

    def test_extra_tokens_partition_the_cache(self):
        graph, values = chain(0)
        assert structural_fingerprint(graph, values, extra=("8bit",)) \
            != structural_fingerprint(graph, values, extra=("16bit",))


class TestRebind:
    def test_rebound_values_are_fresh(self):
        g1, v1 = chain(0)
        g2, v2 = chain(42)
        cache = CompilationCache()
        cache.compile(g1, v1)
        rebound = cache.compile(g2, v2)
        cold = compile_graph(g2, v2)
        by_uid = {i.uid: i for i in cold.program.instructions}
        checked = 0
        for instr in rebound.program.instructions:
            if instr.op is Opcode.CONST:
                assert np.array_equal(instr.meta["value"],
                                      by_uid[instr.uid].meta["value"])
                checked += 1
        assert checked > 0

    def test_provenance_preserved_across_rebind(self):
        g1, v1 = chain(0)
        g2, v2 = chain(7)
        cache = CompilationCache()
        template = cache.compile(g1, v1)
        rebound = cache.compile(g2, v2)
        tagged = 0
        for got, ref in zip(rebound.program.instructions,
                            template.program.instructions):
            assert (got.provenance is None) == (ref.provenance is None)
            if got.provenance is not None:
                assert got.provenance.factor_ids == ref.provenance.factor_ids
                assert got.provenance.stage == ref.provenance.stage
                tagged += 1
        assert tagged > 0

    def test_default_ordering_reused_from_template(self):
        g1, v1 = chain(0, num_poses=5)
        g2, v2 = chain(3, num_poses=5)
        cache = CompilationCache()
        template = cache.compile(g1, v1)
        rebound = cache.compile(g2, v2)
        assert rebound.ordering == template.ordering
        assert rebound.ordering == compile_graph(g2, v2).ordering


class TestCachePolicy:
    def test_lru_eviction(self):
        cache = CompilationCache(max_entries=2)
        problems = [chain(0, num_poses=n) for n in (2, 3, 4)]
        for g, v in problems:
            cache.compile(g, v)
        assert len(cache) == 2
        # Oldest (2-pose) structure was evicted: compiling it again misses.
        cache.compile(*problems[0])
        assert cache.stats()["misses"] == 4

    def test_clear_resets_stats(self):
        cache = CompilationCache()
        cache.compile(*chain(0))
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_admits_on_second_sighting(self):
        g, v = chain(0)
        key = graph_structure(g, v).key
        cache = CompilationCache()
        assert not cache.admits(key)
        assert cache.admits(key)
        cache.compile(g, v)
        assert cache.admits(key)

    def test_clear_resets_admission_record(self):
        g, v = chain(0)
        key = graph_structure(g, v).key
        cache = CompilationCache()
        assert not cache.admits(key)
        cache.clear()
        assert not cache.admits(key)

    def test_admission_record_is_bounded(self):
        cache = CompilationCache(max_entries=1)
        keys = [graph_structure(*chain(0, num_poses=n)).key
                for n in range(2, 8)]
        for key in keys:
            assert not cache.admits(key)
        # Only the last 4 * max_entries sightings are remembered.
        assert not cache.admits(keys[0])
        assert cache.admits(keys[-1])

    def test_counters_emitted_when_observing(self):
        obs.enable()
        try:
            obs.collector().drain()
            cache = CompilationCache()
            cache.compile(*chain(0))
            cache.compile(*chain(5))
            snapshot = obs.collector().drain()
        finally:
            obs.disable()
        assert snapshot.counters["compiler.cache.miss"] == 1
        assert snapshot.counters["compiler.cache.hit"] == 1
        assert snapshot.counters["compiler.cache.rebind_ns"] > 0


class TestConcurrency:
    def test_concurrent_compiles_with_eviction(self):
        """Threads hitting, missing and evicting one small cache never
        lose a count or corrupt the LRU."""
        problems = [chain(seed, num_poses=n)
                    for seed, n in ((0, 2), (1, 3), (2, 4))]
        cache = CompilationCache(max_entries=2)
        errors = []
        barrier = threading.Barrier(4, timeout=60)

        def worker(index):
            try:
                barrier.wait()
                for step in range(60):
                    cache.compile(*problems[(index + step) % 3])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
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
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 4 * 60
        assert stats["entries"] == len(cache.templates()) <= 2


class TestToggle:
    def test_set_cache_enabled_round_trip(self):
        previous = set_cache_enabled(False)
        try:
            assert not cache_enabled()
            clear_default_cache()
            cached_compile_graph(*chain(0))
            cached_compile_graph(*chain(1))
            assert default_cache().stats()["hits"] == 0
        finally:
            set_cache_enabled(previous)

    def test_default_cache_used_when_enabled(self):
        previous = set_cache_enabled(True)
        try:
            clear_default_cache()
            cached_compile_graph(*chain(0))
            cached_compile_graph(*chain(1))
            assert default_cache().stats() == {
                "hits": 1, "misses": 1, "entries": 1,
            }
        finally:
            set_cache_enabled(previous)
            clear_default_cache()

    def test_explicit_cache_overrides_toggle(self):
        previous = set_cache_enabled(False)
        try:
            cache = CompilationCache()
            cached_compile_graph(*chain(0), cache=cache)
            cached_compile_graph(*chain(1), cache=cache)
            assert cache.stats()["hits"] == 1
        finally:
            set_cache_enabled(previous)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            CompilationCache(max_entries=0)


class TestStructure:
    def test_fingerprint_is_stable_hex(self):
        graph, values = chain(0)
        fp = structural_fingerprint(graph, values)
        assert fp == structural_fingerprint(graph, values)
        assert len(fp) == 64
        int(fp, 16)

    def test_factor_constants_reject_embedded_factors(self):
        from repro.errors import CompileError
        from repro.factors import CameraFactor, PinholeCamera

        graph, values = chain(0)
        table = BindingTable(compile_graph(graph, values))
        table.check_factor_constants(graph)
        # Factor 0 (a pose prior) owns expression constants; a factor
        # that compiles to EMBED in its place has none to bind.
        values.insert(Y(0), np.array([0.2, -0.3, 6.0]))
        camera = CameraFactor(X(0), Y(0), np.array([1.0, 1.0]),
                              PinholeCamera())
        assert factor_constants(camera) is None
        swapped = FactorGraph([camera] + graph.factors[1:])
        with pytest.raises(CompileError):
            table.check_factor_constants(swapped)

    def test_embedded_factor_graphs_cache_and_rebind(self):
        from repro.factors import CameraFactor, PinholeCamera

        def slam(value_seed):
            rng = np.random.default_rng(value_seed)
            graph, values = chain(value_seed)
            cam = PinholeCamera()
            landmark = np.array([0.5, -0.3, 6.0]) \
                + 0.1 * rng.standard_normal(3)
            values.insert(Y(0), landmark)
            g2 = FactorGraph()
            for f in graph.factors:
                g2.add(f)
            g2.add(CameraFactor(X(0), Y(0), np.array([320.0, 240.0]), cam))
            g2.add(PriorFactor(Y(0), landmark, Isotropic(3, 1.0)))
            return g2, values

        cache = CompilationCache()
        cache.compile(*slam(0))
        g, v = slam(9)
        rebound = cache.compile(g, v)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        cold = compile_graph(g, v)
        embeds = [i for i in rebound.program.instructions
                  if i.op is Opcode.EMBED]
        assert embeds and all(i.meta["values"] is v for i in embeds)
        from repro.compiler import Executor

        got = rebound.extract_solution(Executor().run(rebound.program))
        want = cold.extract_solution(Executor().run(cold.program))
        for key in want:
            assert np.allclose(got[key], want[key], atol=1e-10)


def _library_factors():
    """One factor of every library type, planar and spatial poses."""
    from repro.factorgraph import U
    from repro.factors import (
        ControlCostFactor, DynamicsFactor, GoalFactor, IMUFactor,
        LiDARFactor, SmoothnessFactor, StateCostFactor)

    rng = np.random.default_rng(3)
    out = []
    for space in (2, 3):
        z = Pose.random(space, rng)
        out += [BetweenFactor(X(1), X(0), z), LiDARFactor(X(1), X(0), z),
                IMUFactor(X(1), X(0), z), PriorFactor(X(0), z),
                GPSFactor(X(0), z.t)]
    out += [
        PriorFactor(Y(0), rng.standard_normal(3)),
        DynamicsFactor(X(0), U(0), X(1), rng.standard_normal((2, 2)),
                       rng.standard_normal((2, 1))),
        StateCostFactor(X(0), rng.standard_normal(2)),
        ControlCostFactor(U(0), 2),
        SmoothnessFactor(X(0), X(1), dof=2, dt=0.3),
        GoalFactor(X(0), rng.standard_normal(2), dof=2),
    ]
    return out


class TestBindingTable:
    @pytest.mark.parametrize("factor", _library_factors(),
                             ids=lambda f: type(f).__name__)
    def test_factor_constants_follow_dag_order(self, factor):
        from repro.compiler.exprs import RotConst, VecConst
        from repro.compiler.library import factor_expression
        from repro.compiler.modfg import GenMatVec, MoDFG

        nodes = MoDFG(factor_expression(factor)).nodes
        want = [n.matrix if isinstance(n, GenMatVec) else n.value
                for n in nodes
                if isinstance(n, (RotConst, VecConst, GenMatVec))]
        got = factor_constants(factor)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(np.asarray(a, dtype=float), b)

    def test_rows_cover_exactly_the_value_bearing_instructions(self):
        graph, values = chain(0, with_gps=True)
        compiled = compile_graph(graph, values)
        table = BindingTable(compiled)
        rows = {position for _, _, group in table.variables
                for position, _, _ in group}
        rows |= {row[0] for _, group in table.factors for row in group}
        want = {
            position
            for position, instr in enumerate(compiled.program.instructions)
            if instr.op is Opcode.CONST
            and instr.meta["binding"][0] != "static"
        }
        assert rows == want
        assert len(table.pairs) == sum(
            i.op is Opcode.CONST for i in compiled.program.instructions)

    def test_rebind_hands_the_fused_plan_its_constants(self):
        """The (register, value) list a rebind hands the fused preload
        is what the rebound instructions themselves carry."""
        cache = CompilationCache()
        cache.compile(*chain(0, with_gps=True))
        rebound = cache.compile(*chain(4, with_gps=True))
        pairs = rebound.program._fused_const_pairs
        consts = [i for i in rebound.program.instructions
                  if i.op is Opcode.CONST]
        assert len(pairs) == len(consts)
        for (dst, value), instr in zip(pairs, consts):
            assert dst == instr.dsts[0]
            assert value is instr.meta["value"] or \
                np.array_equal(value, instr.meta["value"])

    def test_untracked_embed_is_rejected(self):
        from repro.compiler.codegen import CompiledGraph
        from repro.compiler.isa import Program
        from repro.errors import CompileError

        program = Program()
        reg = program.new_register("e", (1,))
        program.emit(Opcode.EMBED, [], [reg], {"kind": "x"})
        with pytest.raises(CompileError):
            BindingTable(CompiledGraph(program=program, row_blocks=[]))
