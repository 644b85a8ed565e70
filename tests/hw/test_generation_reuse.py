"""Equ. 5 search: unchanged results, one simulation per candidate.

The greedy ascent simulates the start design once and every fitting
candidate once per step; the winning candidate's value is reused rather
than re-simulated.  The pinned results below were recorded from the
search that re-simulated the winner, so they also show the reuse does
not change what the search returns.
"""

import pytest

from repro.apps import all_applications
from repro.hw import ZC706, generate_accelerator, minimal_config
from repro.hw.accelerator import ALL_UNIT_CLASSES
from repro.sim import Simulator

STEPS_LATENCY = [("matmul", 2748.0, 1547.0), ("bsub", 1547.0, 1453.0),
                 ("qr", 1453.0, 1422.0), ("matmul", 1422.0, 1014.0),
                 ("bsub", 1014.0, 1009.0)]
STEPS_ENERGY = [
    ("matmul", 0.1688442009580838, 0.11706456023952094),
    ("bsub", 0.11706456023952094, 0.1130118656287425),
    ("qr", 0.1130118656287425, 0.11167533868263471),
    ("matmul", 0.11167533868263471, 0.09408491952095807),
    ("bsub", 0.09408491952095807, 0.09386935065868263),
]
CONFIG = {"bsub": 3, "matmul": 3, "qr": 2, "special": 1, "vector": 1}

# (objective, frame seeds, final objective, steps)
PINNED = [
    ("latency", (0,), 1009.0, STEPS_LATENCY),
    ("energy", (0, 1), 0.09386935065868263, STEPS_ENERGY),
    ("tail", (0, 1), 1009.0, STEPS_LATENCY),
]


@pytest.fixture(scope="module")
def frames():
    app = {a.name: a for a in all_applications()}["Manipulator"]
    return {seed: app.compile_frame(seed) for seed in (0, 1)}


def candidates_evaluated(result, budget, max_steps=32):
    """Fitting candidates the search must have simulated, step by step."""
    config = minimal_config()
    total = 0
    rounds = len(result.steps) + (len(result.steps) < max_steps)
    for index in range(rounds):
        total += sum(config.with_extra_unit(u).fits(budget)
                     for u in ALL_UNIT_CLASSES)
        if index < len(result.steps):
            config = config.with_extra_unit(result.steps[index].added_unit)
    return total


@pytest.mark.parametrize("objective,seeds,final,steps", PINNED,
                         ids=[p[0] for p in PINNED])
def test_generation_unchanged_with_one_simulation_per_candidate(
        frames, monkeypatch, objective, seeds, final, steps):
    calls = {}
    run = Simulator.run

    def counting_run(self, program, *args, **kwargs):
        calls[id(program)] = calls.get(id(program), 0) + 1
        return run(self, program, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counting_run)
    programs = [frames[s] for s in seeds]
    result = generate_accelerator(programs, ZC706, objective=objective)
    assert result.config.unit_counts == CONFIG
    assert result.objective == final
    assert [(s.added_unit, s.objective_before, s.objective_after)
            for s in result.steps] == steps
    config = minimal_config()
    for step in result.steps:
        config = config.with_extra_unit(step.added_unit)
        assert step.resources_after == config.resources()
    expected = 1 + candidates_evaluated(result, ZC706)
    assert calls == {id(p): expected for p in programs}
