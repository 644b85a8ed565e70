"""Simulator parity cases and the fixture that pins their results.

Every case simulates one application frame (``compile_frame(0)``) under
one policy, issue width and accelerator, and reduces the run to a record
of exact totals plus sha256 digests of its schedule and its cycle
accounting.  ``ooo_parity.json`` holds the records of a reference engine;
``test_ooo_parity.py`` requires the current engine to reproduce them bit
for bit.

Regenerate the fixture (only when a change to the simulated *model* is
intended, never to absorb an engine refactor) from the repository root::

    PYTHONPATH=src python -m tests.sim.ooo_parity_cases
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.apps import all_applications
from repro.compiler.isa import UNIT_QR, Opcode
from repro.errors import SimulationError
from repro.hw import AcceleratorConfig, dsp_budget, generate_accelerator
from repro.resilience import CampaignSpec, plan_faults
from repro.sim import Simulator

FIXTURE = Path(__file__).with_name("ooo_parity.json")

FRAME_SEED = 0
DSP_BUDGET = 450
POLICIES = ("ooo", "inorder", "sequential")
WIDTHS = (None, 1, 3)
# The fault case: a mixed stall/drop/value campaign on one frame.
FAULT_APP = "Manipulator"
FAULT_SPEC = CampaignSpec(fault_model="mixed", rate=0.05, seed=3,
                          stall_cycles=24)
FAULT_WIDTHS = (None, 2)
# Error cases: their exact messages are pinned too.
ERROR_APPS = ("Manipulator", "MobileRobot")
ERROR_WIDTHS = (None, 1)


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record(result) -> Dict[str, Any]:
    """The exact, comparable reduction of one ``SimulationResult``."""
    schedule = sorted((uid, s, f) for uid, (s, f) in result.schedule.items())
    acc = result.cycle_accounting
    return {
        "total_cycles": result.total_cycles,
        "energy_mj": result.energy_mj,
        "stall_counts": dict(sorted(result.stall_counts.items())),
        "wait_by_cause": dict(sorted(acc.wait_by_cause.items())),
        "schedule_sha256": _digest(schedule),
        "accounting_sha256": _digest(acc.to_dict()),
        "waits_sha256": _digest(acc.waits_to_dict()),
        "result_sha256": _digest(result.to_dict()),
    }


def case_id(app: str, config: str, policy: str,
            width: Optional[int], fault: bool = False) -> str:
    tag = f"{app}/{config}/{policy}/w{width if width else 'inf'}"
    return tag + "/fault" if fault else tag


def programs() -> Dict[str, Any]:
    return {app.name: app.compile_frame(FRAME_SEED)
            for app in all_applications()}


def generated_counts(program) -> Dict[str, int]:
    """Unit counts of the Equ. 5 design for ``program`` at 450 DSPs."""
    generation = generate_accelerator(program, dsp_budget(DSP_BUDGET),
                                      objective="latency", policy="ooo")
    return dict(sorted(generation.config.unit_counts.items()))


def cases(progs: Dict[str, Any], configs: Dict[str, Dict[str, Any]]
          ) -> Iterator[Tuple[str, Any, AcceleratorConfig, str,
                              Optional[int], Any]]:
    """``(id, program, config, policy, width, fault_plan)`` per case.

    ``configs`` maps app -> {"default": counts-or-None, "dsp450": counts}.
    """
    for app, program in progs.items():
        for label in ("default", "dsp450"):
            counts = configs[app][label]
            config = (AcceleratorConfig() if counts is None
                      else AcceleratorConfig(unit_counts=dict(counts)))
            for policy in POLICIES:
                for width in WIDTHS:
                    yield (case_id(app, label, policy, width), program,
                           config, policy, width, None)
    program = progs[FAULT_APP]
    for width in FAULT_WIDTHS:
        yield (case_id(FAULT_APP, "default", "ooo", width, fault=True),
               program, AcceleratorConfig(), "ooo", width,
               plan_faults(program, FAULT_SPEC))


def simulate(program, config, policy, width, fault_plan):
    return Simulator(config, issue_width=width).run(
        program, policy, record_schedule=True, fault_plan=fault_plan)


def starved_config() -> AcceleratorConfig:
    """A config with no ``qr`` instances at all."""
    counts = {u: c for u, c in AcceleratorConfig().unit_counts.items()
              if u != UNIT_QR}
    return AcceleratorConfig(unit_counts=counts)


def self_dependent(program):
    """``program`` with its first non-CONST instruction waiting on itself,
    so nothing downstream of it can ever issue."""
    deps = program.dependencies()
    first = next(i.uid for i in program.instructions
                 if i.op is not Opcode.CONST)
    deps[first] = deps[first] + [first]
    program.dependencies = lambda: deps
    return program


def error_cases() -> Iterator[Tuple[str, Any, AcceleratorConfig, str,
                                   Optional[int]]]:
    """``(id, program, config, policy, width)`` per failing run."""
    for app in all_applications():
        if app.name not in ERROR_APPS:
            continue
        for policy in POLICIES:
            for width in ERROR_WIDTHS:
                tag = f"{app.name}/{policy}/w{width if width else 'inf'}"
                yield ("starved/" + tag, app.compile_frame(FRAME_SEED),
                       starved_config(), policy, width)
                yield ("deadlock/" + tag,
                       self_dependent(app.compile_frame(FRAME_SEED)),
                       AcceleratorConfig(), policy, width)


def error_message(program, config, policy, width) -> str:
    try:
        Simulator(config, issue_width=width).run(program, policy)
    except SimulationError as exc:
        return str(exc)
    raise AssertionError("simulation was expected to fail")


def main() -> None:
    progs = programs()
    configs = {app: {"default": None, "dsp450": generated_counts(p)}
               for app, p in progs.items()}
    records = {cid: record(simulate(program, config, policy, width, plan))
               for cid, program, config, policy, width, plan
               in cases(progs, configs)}
    errors = {cid: error_message(program, config, policy, width)
              for cid, program, config, policy, width in error_cases()}
    FIXTURE.write_text(json.dumps({
        "frame_seed": FRAME_SEED,
        "dsp_budget": DSP_BUDGET,
        "configs": configs,
        "records": records,
        "errors": errors,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {FIXTURE}")


if __name__ == "__main__":
    main()
