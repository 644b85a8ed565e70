"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is right);
the runner charges every problem to the operation that produced the
output, so a failed check counts in ``failed_frac`` and fails the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

import numpy as np

# Fused and reference solves run the same arithmetic in the same order
# up to the QR kernels, which agree to ~1e-13 on every application.
SOLUTION_ATOL = 1e-9
# The dense least-squares step and the QR elimination step solve the
# same full-rank system by different factorizations; they agree to
# better than 1e-12 relative on all four applications (worst seen:
# 7.6e-13, LQR control), so 1e-9 still catches a perturbed kernel.
STEP_RTOL = 1e-9
STEP_ATOL = 1e-12


def _flat(value) -> np.ndarray:
    vector = getattr(value, "vector", None)
    return vector() if callable(vector) else np.asarray(value, dtype=float)


def solve_output(result) -> List[str]:
    """The solve ended at finite values, with a finite error no larger
    than where it started.

    Levenberg-Marquardt only accepts descending steps, and a converging
    Gauss-Newton solve descends, so a final error above the initial one
    means the solve diverged.
    """
    problems = []
    if not math.isfinite(result.final_error):
        problems.append(f"non-finite final error {result.final_error}")
    elif result.final_error > result.initial_error:
        problems.append(f"diverged: error {result.initial_error:.6g} -> "
                        f"{result.final_error:.6g} in "
                        f"{result.num_iterations} iterations")
    for key in result.values.keys():
        if not np.all(np.isfinite(_flat(result.values.at(key)))):
            problems.append(f"non-finite value for {key}")
            break
    return problems


def same_solution(result, other, label: str) -> List[str]:
    """Two backends' solves of one input agree per variable."""
    problems = []
    if result.num_iterations != other.num_iterations:
        problems.append(
            f"{label}: {result.num_iterations} iterations vs "
            f"{other.num_iterations} on the other backend")
    for key in result.values.keys():
        diff = np.max(np.abs(_flat(result.values.at(key))
                             - _flat(other.values.at(key))))
        if not diff <= SOLUTION_ATOL:
            problems.append(f"{label}: {key} differs by {diff:.3g}")
            break
    return problems


def _dense_step(graph, initial, damping: float = 0.0) -> Dict:
    """``lstsq`` of the graph linearized at ``initial`` (optionally with
    ``sqrt(damping) I`` rows appended), per variable."""
    a, b, slices = graph.linearize(initial).dense_system()
    if damping > 0.0:
        a = np.vstack([a, math.sqrt(damping) * np.eye(a.shape[1])])
        b = np.concatenate([b, np.zeros(a.shape[1])])
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    return {key: solution[s] for key, s in slices.items()}


def _norm(delta: Dict) -> float:
    return float(np.sqrt(sum(float(d @ d) for d in delta.values())))


def first_step(graph, initial, result, lm_params=None) -> List[str]:
    """The first step norm equals a dense least-squares solve.

    Gauss-Newton's first step solves the linearization at ``initial``.
    Levenberg-Marquardt's first accepted step solves it damped, at the
    first damping in its schedule whose step does not raise the error.
    """
    if not result.iterations:
        return ["solve recorded no iterations"]
    expected = None
    if lm_params is None:
        expected = _norm(_dense_step(graph, initial))
    else:
        error_before = graph.error(initial)
        damping = lm_params.initial_lambda
        while damping <= lm_params.max_lambda:
            delta = _dense_step(graph, initial, damping)
            if graph.error(initial.retract(delta)) <= error_before:
                expected = _norm(delta)
                break
            damping *= lm_params.lambda_factor
        if expected is None:
            return ["dense LM found no descending first step"]
    got = result.iterations[0].step_norm
    if not abs(got - expected) <= STEP_ATOL + STEP_RTOL * abs(expected):
        return [f"first step norm {got:.12g}, dense lstsq {expected:.12g}"]
    return []


def generated_design(generation, budget) -> List[str]:
    """The design fits its budget; every greedy step strictly improves."""
    problems = []
    if not generation.config.fits(budget):
        problems.append("generated design exceeds its DSP budget")
    previous = None
    for index, step in enumerate(generation.steps):
        if not step.objective_after < step.objective_before:
            problems.append(f"step {index} did not decrease the objective")
        if previous is not None and step.objective_before != previous:
            problems.append(f"step {index} does not continue step "
                            f"{index - 1}")
        previous = step.objective_after
    if previous is not None and generation.objective != previous:
        problems.append("final objective differs from the last step")
    return problems


def load_cycle_baseline(root: Path) -> Dict:
    """The committed seed-0 cycle-domain baseline (``repro.bench``)."""
    path = root / "benchmarks" / "baseline" / "BENCH_seed.json"
    with open(path) as handle:
        return json.load(handle)["workloads"]


def matches_cycle_baseline(app_name: str, result, baseline: Dict
                           ) -> List[str]:
    """Seed-0 ooo cycles and energy equal the committed baseline."""
    entry = baseline[f"{app_name}/ooo"]
    problems = []
    if result.total_cycles != entry["total_cycles"]:
        problems.append(f"{app_name}: {result.total_cycles} cycles, "
                        f"baseline {entry['total_cycles']}")
    if not math.isclose(result.energy_mj, entry["energy_mj"],
                        rel_tol=1e-12):
        problems.append(f"{app_name}: {result.energy_mj} mJ, baseline "
                        f"{entry['energy_mj']}")
    return problems
