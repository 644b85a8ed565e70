"""The simulator reproduces the pinned reference results bit for bit.

``ooo_parity.json`` was recorded from the engine that examined every
ready instruction in every scheduling round.  The current engine keeps
per-unit-class ready queues instead; every schedule, stall count, cycle
accounting and error message must be unchanged (see
``ooo_parity_cases`` for the cases and how the fixture is regenerated).
"""

import json

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from tests.sim import ooo_parity_cases as parity

FIXTURE = json.loads(parity.FIXTURE.read_text())


@pytest.fixture(scope="module")
def runs():
    return {case[0]: case[1:] for case
            in parity.cases(parity.programs(), FIXTURE["configs"])}


@pytest.fixture(scope="module")
def failing_runs():
    return {case[0]: case[1:] for case in parity.error_cases()}


def test_fixture_covers_every_case(runs):
    assert sorted(runs) == sorted(FIXTURE["records"])


@pytest.mark.parametrize("cid", sorted(FIXTURE["records"]))
def test_run_matches_reference(runs, cid):
    program, config, policy, width, plan = runs[cid]
    got = parity.record(parity.simulate(program, config, policy, width,
                                        plan))
    assert got == FIXTURE["records"][cid]


@pytest.mark.parametrize("cid", sorted(FIXTURE["errors"]))
def test_error_matches_reference(failing_runs, cid):
    program, config, policy, width = failing_runs[cid]
    with pytest.raises(SimulationError) as info:
        Simulator(config, issue_width=width).run(program, policy)
    assert str(info.value) == FIXTURE["errors"][cid]


def test_generated_designs_match_reference():
    """The Equ. 5 search, which scores designs by out-of-order runs,
    picks the same 450-DSP accelerator for every application."""
    for app, program in parity.programs().items():
        assert parity.generated_counts(program) == \
            FIXTURE["configs"][app]["dsp450"], app
