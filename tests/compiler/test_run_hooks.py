"""The after-dispatch hook contract shared by both execution backends.

``Executor.run`` (the interpreter) and ``FusedPlan.execute`` (the fused
backend) are the only run loops; every instrument -- wall-clock
profiler, value tracer, deadline guard, chaos injectors, the value-fault
corrupter -- rides on the hook chain they call after each dispatch.
"""

import json
import time

import numpy as np
import pytest

from repro.compiler import Executor, FusedExecutor, cached_compile_graph
from repro.compiler.fused import plan_for
from repro.compiler.isa import Opcode
from repro.obs import vtrace, wallclock

from tests.diff.util import random_problem


@pytest.fixture(scope="module")
def program():
    return cached_compile_graph(*random_problem(3, 31), cache=None).program


def recording_hook(calls):
    def hook(executor, program, indices):
        calls.append(tuple(indices))
    return hook


def non_const(program):
    return [i for i, instr in enumerate(program.instructions)
            if instr.op is not Opcode.CONST]


class TestHookContract:
    def test_interpreter_one_index_per_call_in_program_order(self, program):
        calls = []
        Executor([recording_hook(calls)]).run(program)
        assert calls == [(i,) for i in range(len(program.instructions))]

    def test_fused_one_call_per_dispatch(self, program):
        calls = []
        FusedExecutor([recording_hook(calls)]).run(program)
        plan = plan_for(program)
        # The CONST preload is the first dispatch, then one per step.
        assert calls[0] == plan.const_indices
        assert calls[1:] == [step.indices for step in plan.steps]
        assert len(calls) == plan.dispatch_count()

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor])
    def test_every_non_const_index_seen_exactly_once(self, program,
                                                     backend):
        calls = []
        backend([recording_hook(calls)]).run(program)
        seen = sorted(i for call in calls for i in call
                      if program.instructions[i].op is not Opcode.CONST)
        assert seen == non_const(program)

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor])
    def test_hooks_run_in_chain_order(self, program, backend):
        order = []

        def first(executor, program, indices):
            order.append("first")

        def second(executor, program, indices):
            order.append("second")

        backend([first, second]).run(program)
        assert order[:4] == ["first", "second", "first", "second"]

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor])
    def test_hooked_run_matches_plain_run(self, program, backend):
        plain = backend().run(program)
        hooked = backend([recording_hook([])]).run(program)
        assert set(plain) == set(hooked)
        for name in plain:
            assert np.array_equal(plain[name], hooked[name])

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor])
    def test_raising_hook_propagates_and_footer_is_written(
            self, program, backend, tmp_path):
        calls = []

        def explode(executor, program, indices):
            calls.append(indices)
            if len(calls) == 3:
                raise RuntimeError("hook failed")

        path = tmp_path / "crash.trace"
        with vtrace.recording_scope(path, ring_size=4):
            with pytest.raises(RuntimeError, match="hook failed"):
                backend([explode]).run(program)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1]["kind"] == "end"
        assert len(calls) == 3


class TestInstrumentHooks:
    @pytest.mark.parametrize("backend", [Executor, FusedExecutor])
    def test_profiler_excludes_other_hooks_time(self, program, backend):
        delay_ns = 1_000_000

        def slow(executor, program, indices):
            time.sleep(delay_ns / 1e9)

        calls = []
        with wallclock.profiled_scope() as profiler:
            backend([recording_hook(calls), slow]).run(program)
        snap = profiler.drain()
        assert snap["instructions"] == len(program.instructions)
        # Every dispatch was followed by a 1 ms sleep; none of it may be
        # attributed to the dispatches themselves.
        assert snap["total_self_ns"] < len(calls) * delay_ns / 2

    def test_interpreter_trace_records_after_caller_hooks(self, program,
                                                          tmp_path):
        # A caller hook that rewrites a register (the value-fault
        # corrupter's pattern) is chained ahead of the tracer, so the
        # trace records the rewritten value.
        target = non_const(program)[0]
        dst = program.instructions[target].dsts[0]

        def poison(executor, program, indices):
            if indices[0] == target:
                executor.registers[dst] = executor.registers[dst] + 1.0

        clean, dirty = tmp_path / "clean.trace", tmp_path / "dirty.trace"
        with vtrace.recording_scope(clean, ring_size=0):
            Executor().run(program)
        with vtrace.recording_scope(dirty, ring_size=0):
            Executor([poison]).run(program)

        def digests(path):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record["kind"] == "instr" and record["uid"] == \
                        program.instructions[target].uid:
                    return record["digests"]

        assert digests(clean)[dst] != digests(dirty)[dst]
