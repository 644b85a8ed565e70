"""Expression templates for the built-in factor library.

Maps library factors to their MO-DFG error expressions so the compiler
emits true Tbl. 3 instruction streams for them.  Factors whose residual
needs a sensor-specific nonlinearity outside the nine primitives (camera
projection, signed-distance lookups, hinge losses) return ``None`` and are
compiled to a single host-side EMBED front-end instruction instead — see
DESIGN.md, "Hardware substitutions".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.compiler.exprs import (
    Expr,
    LogMap,
    OMinus,
    PoseConst,
    PoseVar,
    RotConst,
    RotRot,
    RotT,
    RotVar,
    TransVar,
    VecAdd,
    VecConst,
    VecVar,
)
from repro.compiler.lowering import pose_error
from repro.compiler.modfg import GenMatVec
from repro.factorgraph.factor import Factor
from repro.factors.between import BetweenFactor
from repro.factors.control import (
    ControlCostFactor,
    DynamicsFactor,
    StateCostFactor,
)
from repro.factors.planning import GoalFactor, SmoothnessFactor
from repro.factors.priors import GPSFactor, PriorFactor
from repro.geometry.pose import Pose


def factor_expression(factor: Factor) -> Optional[List[Expr]]:
    """Error components of a library factor, or None if not expressible."""
    if isinstance(factor, BetweenFactor):
        return _between(factor)
    if isinstance(factor, PriorFactor):
        return _prior(factor)
    if isinstance(factor, GPSFactor):
        return _gps(factor)
    if isinstance(factor, DynamicsFactor):
        return _dynamics(factor)
    if isinstance(factor, StateCostFactor):
        return _state_cost(factor)
    if isinstance(factor, ControlCostFactor):
        return _control_cost(factor)
    if isinstance(factor, SmoothnessFactor):
        return _smoothness(factor)
    if isinstance(factor, GoalFactor):
        return _goal(factor)
    return None


def factor_constants(factor: Factor) -> Optional[List[np.ndarray]]:
    """The constants of ``factor_expression(factor)``, without the DAG.

    One entry per constant node (``RotConst``/``VecConst`` value,
    ``GenMatVec`` matrix), in :class:`~repro.compiler.modfg.MoDFG`
    topological order: exactly what a compilation-cache rebind loads
    from a factor.  :class:`~repro.compiler.cache.BindingTable` checks
    this against the constants of every cold-compiled template, so the
    two functions cannot drift apart unnoticed.  None for factors that
    compile to a host-side EMBED.
    """
    if isinstance(factor, BetweenFactor):
        measured = factor.measured
        return [measured.rotation, measured.t]
    if isinstance(factor, PriorFactor):
        prior = factor.prior
        if isinstance(prior, Pose):
            return [prior.rotation, prior.t]
        return [prior]
    if isinstance(factor, GPSFactor):
        return [factor.measured]
    if isinstance(factor, DynamicsFactor):
        return [factor.a, factor.b]
    if isinstance(factor, StateCostFactor):
        return [factor.reference]
    if isinstance(factor, ControlCostFactor):
        return []
    if isinstance(factor, SmoothnessFactor):
        sq, sv = _selectors(factor.dof)
        return [sq, sq + factor.dt * sv, sv, sv]
    if isinstance(factor, GoalFactor):
        sq, _ = _selectors(factor.dof)
        return [sq, factor.goal]
    return None


def _selectors(dof: int):
    """``(Sq, Sv)``: pick positions / velocities out of ``[q | v]``."""
    sq = np.hstack([np.eye(dof), np.zeros((dof, dof))])
    sv = np.hstack([np.zeros((dof, dof)), np.eye(dof)])
    return sq, sv


def _between(factor: BetweenFactor) -> List[Expr]:
    """Equ. 3: f(x_i, x_j) = (x_i (-) x_j) (-) z_ij, lowered to Equ. 4."""
    n = factor.measured.n
    xi = PoseVar(factor.keys[0], n)
    xj = PoseVar(factor.keys[1], n)
    z = PoseConst(f"z[{factor.keys[0]},{factor.keys[1]}]", factor.measured)
    return pose_error(OMinus(OMinus(xi, xj), z))


def _prior(factor: PriorFactor) -> List[Expr]:
    key = factor.keys[0]
    prior = factor.prior
    if isinstance(prior, Pose):
        # local(): e_o = Log(Rp^T R), e_t = t - tp  (chart difference, not
        # the group (-) whose translation is expressed in the prior frame).
        rp_t = RotT(RotConst(f"prior[{key}].R", prior.rotation))
        e_o = LogMap(RotRot(rp_t, RotVar(key, prior.n)))
        e_t = VecAdd(TransVar(key, prior.n),
                     VecConst(f"prior[{key}].t", prior.t), sign=-1)
        return [e_o, e_t]
    dim = prior.shape[0]
    return [VecAdd(VecVar(key, dim),
                   VecConst(f"prior[{key}]", prior), sign=-1)]


def _gps(factor: GPSFactor) -> List[Expr]:
    key = factor.keys[0]
    n = factor.measured.shape[0]
    return [VecAdd(TransVar(key, n),
                   VecConst(f"gps[{key}]", factor.measured), sign=-1)]


def _dynamics(factor: DynamicsFactor) -> List[Expr]:
    x_k, u_k, x_next = factor.keys
    ax = GenMatVec(f"A[{x_k}]", factor.a, VecVar(x_k, factor.state_dim))
    bu = GenMatVec(f"B[{u_k}]", factor.b, VecVar(u_k, factor.input_dim))
    return [VecAdd(VecAdd(VecVar(x_next, factor.state_dim), ax, sign=-1),
                   bu, sign=-1)]


def _state_cost(factor: StateCostFactor) -> List[Expr]:
    key = factor.keys[0]
    dim = factor.reference.shape[0]
    return [VecAdd(VecVar(key, dim),
                   VecConst(f"ref[{key}]", factor.reference), sign=-1)]


def _control_cost(factor: ControlCostFactor) -> List[Expr]:
    return [VecVar(factor.keys[0], factor.dim)]


def _smoothness(factor: SmoothnessFactor) -> List[Expr]:
    key_i, key_j = factor.keys
    d = factor.dof
    sq, sv = _selectors(d)
    xi = VecVar(key_i, 2 * d)
    xj = VecVar(key_j, 2 * d)
    # e_q = q_j - q_i - dt * v_i  ==  Sq x_j - (Sq + dt Sv) x_i
    e_q = VecAdd(GenMatVec(f"Sq[{key_j}]", sq, xj),
                 GenMatVec(f"SqdtSv[{key_i}]", sq + factor.dt * sv, xi),
                 sign=-1)
    # e_v = v_j - v_i
    e_v = VecAdd(GenMatVec(f"Sv[{key_j}]", sv, xj),
                 GenMatVec(f"Sv[{key_i}]", sv, xi), sign=-1)
    return [e_q, e_v]


def _goal(factor: GoalFactor) -> List[Expr]:
    key = factor.keys[0]
    d = factor.dof
    sq, _ = _selectors(d)
    return [VecAdd(GenMatVec(f"Sq[{key}]", sq, VecVar(key, 2 * d)),
                   VecConst(f"goal[{key}]", factor.goal), sign=-1)]
