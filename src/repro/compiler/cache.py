"""Compile-once/bind-many: a structure-keyed compilation cache.

The ORIANNA accelerator compiles a factor graph's MO-DFGs once and then
re-executes the same instruction schedule every solver iteration with
fresh numerics (Fig. 3).  The software pipeline mirrors that split here:

- :func:`structural_fingerprint` hashes everything that determines the
  *shape* of the compiled program — factor types, expression-DAG
  topology, variable dimensions, connectivity, noise-model classes and
  dimensions, the elimination ordering — and deliberately excludes the
  numeric values (pose estimates, measurements, noise sigmas).
- Every value-bearing instruction (``CONST``/``EMBED``) carries a
  *binding spec* in ``meta["binding"]`` recorded at emission time, which
  says where its numerics come from: a variable's pose/vector estimate,
  a factor's whitening matrix, a constant node of the factor's
  expression DAG, or the factor object itself for host-side EMBED.
- When a template enters the cache, its specs are flattened once into a
  :class:`BindingTable`: the positions of the value-bearing
  instructions, split into *variable* rows (read from the ``Values``
  every rebind) and *factor* rows (read from the factors).  On a hit a
  rebind copies the template's instruction list and rewrites only those
  positions — no codegen, no ordering search, no QR layout computation,
  no walk over the value-free instructions and no expression DAG:
  factor constants come from :func:`~repro.compiler.library.
  factor_constants`.  Factor rows are resolved once per optimizer call
  (see :class:`FactorConstants`), variable rows once per rebind.

Soundness notes:

- The cache stores the **unoptimized** template.  CSE merges CONST
  loads by value, so an optimized program is only valid for the values
  it was optimized against; callers re-run :meth:`CompiledGraph.
  optimized` after rebinding when they want the pass pipeline.
- Rebinding into another register namespace (e.g. ``control#0`` ..
  ``control#4``, one template per frame) goes through a renamed
  *variant* of the template, built once with its own binding table; the
  rebound stream is instruction-identical to what a cold compile would
  emit.
- When the caller passes ``ordering=None`` the fingerprint uses a
  ``default`` sentinel and a hit reuses the template's stored ordering:
  min-degree ordering depends only on sparsity structure, so it is
  identical — and the (expensive) linearize it requires is skipped.

Sharing: optimizer calls on the compiled backends solve through the
process-wide :func:`default_cache` with *admit-on-reuse*
(:meth:`CompilationCache.admits`).  The first call to see a structure
is served by a private per-call cache; a later call on it compiles into
the shared cache, and every call after that rebinds.  Structures that
never recur (e.g. Quadrotor's per-frame VIO windows) never occupy the
shared LRU.  One lock per cache guards its shared state.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CompileError
from repro.compiler.exprs import (
    Expr,
    RotConst,
    RotVar,
    TransVar,
    VecAdd,
    VecConst,
    VecVar,
)
from repro.compiler.isa import Instruction, Opcode, Program
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.geometry.pose import Pose
from repro.obs import counters, trace

# ----------------------------------------------------------------------
# Binding specs: where a CONST/EMBED instruction's numerics come from.
# ----------------------------------------------------------------------

BIND_STATIC = "static"      # shape-only constants (zeros, identity seeds)
BIND_POSE_PHI = "pose_phi"  # ("pose_phi", key)  -> values.pose(key).phi
BIND_POSE_T = "pose_t"      # ("pose_t", key)    -> values.pose(key).t
BIND_VECTOR = "vector"      # ("vector", key)    -> values.vector(key)
BIND_NOISE = "noise"        # ("noise", fid)     -> factor.noise.sqrt_information
BIND_EXPR = "expr"          # ("expr", fid, i)   -> i-th DAG node's constant
BIND_EMBED = "embed"        # ("embed", fid)     -> the factor object itself

# What CompilationCache.compile did for a structure (GraphStructure.outcome).
OUTCOME_COMPILE = "compile"
OUTCOME_REBIND = "rebind"


@dataclass
class GraphStructure:
    """A graph's structural cache key.

    ``outcome`` is what the last :meth:`CompilationCache.compile` given
    this structure did (:data:`OUTCOME_COMPILE` or
    :data:`OUTCOME_REBIND`): the caller's own result, unaffected by
    other threads sharing the cache.
    """

    key: Tuple
    outcome: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable hex digest of the structural key (for reporting)."""
        return hashlib.sha256(repr(self.key).encode("utf-8")).hexdigest()


def _build_rename_map(register_shapes: Dict[str, Any], old_prefix: str,
                      new_prefix: str) -> Dict[str, str]:
    """``old register -> new register`` map swapping the namespace prefix."""
    old_head = f"{old_prefix}." if old_prefix else ""
    new_head = f"{new_prefix}." if new_prefix else ""
    rmap = {}
    for name in register_shapes:
        if old_head and not name.startswith(old_head):
            raise CompileError(
                f"register {name!r} lacks template prefix {old_prefix!r}"
            )
        rmap[name] = f"{new_head}{name[len(old_head):]}"
    return rmap


def _expr_signature(nodes: List[Expr]) -> Tuple:
    """Structural signature of one factor's expression DAG.

    Captures node types, spatial/vector dimensions, variable keys, VP
    signs, constant shapes and the DAG wiring — but no constant values.
    The topological order of :class:`~repro.compiler.modfg.MoDFG` is a
    deterministic DFS, so equal signatures imply position-identical
    node lists and the ``("expr", fid, i)`` indices line up.
    """
    from repro.compiler.modfg import GenMatVec

    index = {id(n): i for i, n in enumerate(nodes)}
    sig = []
    for node in nodes:
        row: List[Any] = [
            type(node).__name__, node.kind, int(node.n),
            tuple(index[id(c)] for c in node.children),
        ]
        if isinstance(node, (RotVar, TransVar, VecVar)):
            row.append(repr(node.key))
        elif isinstance(node, VecAdd):
            row.append(int(node.sign))
        elif isinstance(node, (RotConst, VecConst)):
            row.append(tuple(node.value.shape))
        elif isinstance(node, GenMatVec):
            row.append(tuple(node.matrix.shape))
        sig.append(tuple(row))
    return tuple(sig)


def _noise_signature(noise) -> Tuple:
    sig: List[Any] = [type(noise).__name__,
                      tuple(np.asarray(noise.sqrt_information).shape)]
    estimator = getattr(noise, "estimator", None)
    if estimator is not None:
        sig.append(type(estimator).__name__)
    return tuple(sig)


def _value_signature(value) -> Tuple:
    if isinstance(value, Pose):
        return ("pose", int(value.n), int(value.phi.shape[0]))
    return ("vec", int(np.asarray(value).shape[0]))


# Library factor types whose expression-DAG shape is fully determined by
# (concrete type, factor dim, keys, per-variable dims): the fingerprint
# can skip rebuilding their DAG.  Types not listed here (custom
# ExpressionFactors, EMBED front-ends, new factors) fall back to probing
# factor_expression and signing the DAG structurally.
_STRUCTURAL_FACTOR_TYPES = frozenset({
    "BetweenFactor", "LiDARFactor", "IMUFactor",
    "PriorFactor", "GPSFactor",
    "DynamicsFactor", "StateCostFactor", "ControlCostFactor",
    "SmoothnessFactor", "GoalFactor",
})


def graph_structure(graph: FactorGraph, values: Values,
                    ordering: Optional[Sequence[Key]] = None,
                    extra: Tuple = ()) -> GraphStructure:
    """Fingerprint a ``(graph, values-structure, ordering)`` triple.

    ``extra`` lets callers fold target-configuration tokens (e.g. a unit
    mix) into the key so one cache can serve several targets.
    """
    from repro.compiler.library import factor_expression

    factor_tokens = []
    for factor in graph:
        type_name = type(factor).__name__
        if type_name in _STRUCTURAL_FACTOR_TYPES:
            shape_token: Tuple = ("lib",)
        else:
            components = factor_expression(factor)
            if components is None:
                shape_token = (
                    "embed",
                    tuple(int(values.dim(k)) for k in factor.keys),
                )
            else:
                from repro.compiler.modfg import MoDFG

                shape_token = ("expr",
                               _expr_signature(MoDFG(components).nodes))
        factor_tokens.append((
            type_name,
            int(factor.dim),
            tuple(factor.keys),
            _noise_signature(factor.noise),
            shape_token,
        ))

    variable_tokens = tuple(
        (k, _value_signature(values.at(k))) for k in graph.keys()
    )
    ordering_token: Any = "default" if ordering is None else tuple(ordering)

    key = (tuple(factor_tokens), variable_tokens, ordering_token,
           tuple(extra))
    return GraphStructure(key=key)


def structural_fingerprint(graph: FactorGraph, values: Values,
                           ordering: Optional[Sequence[Key]] = None,
                           extra: Tuple = ()) -> str:
    """The fingerprint string alone (see :func:`graph_structure`)."""
    return graph_structure(graph, values, ordering, extra).fingerprint


# ----------------------------------------------------------------------
# Rebinding: fresh numerics on a template, through its binding table
# ----------------------------------------------------------------------

# Variable rows: how each spec kind reads the current estimate.
_VARIABLE_READERS: Dict[str, Callable[[Values, Key], np.ndarray]] = {
    BIND_POSE_PHI: lambda values, key: values.pose(key).phi,
    BIND_POSE_T: lambda values, key: values.pose(key).t,
    BIND_VECTOR: lambda values, key: values.vector(key),
}


def _with_meta(instr: Instruction, meta: Dict[str, Any]) -> Instruction:
    """``instr`` carrying ``meta``; every other field is shared with the
    template (instructions are immutable after emission)."""
    return Instruction(instr.uid, instr.op, instr.srcs, instr.dsts, meta,
                       instr.phase, instr.algorithm, instr.provenance)


def _bind_factor(factor, rows) -> List[Tuple[int, int, Instruction,
                                              np.ndarray]]:
    """One factor's rows bound: ``(position, slot, instruction, value)``."""
    from repro.compiler.library import factor_constants

    constants = None
    bound = []
    for position, slot, instr, rank in rows:
        if rank is None:
            value = factor.noise.sqrt_information
        else:
            if constants is None:
                constants = factor_constants(factor)
            value = constants[rank]
        value = np.asarray(value, dtype=float)
        bound.append((position, slot,
                      _with_meta(instr, {**instr.meta, "value": value}),
                      value))
    return bound


class FactorConstants:
    """Factor-side numerics bound during one optimizer call.

    A solver iterating on one graph re-binds the same factors every
    iteration; only the variable estimates change.  Passing one of these
    to :meth:`CompilationCache.compile` for the whole call resolves each
    factor's constants (whitening matrix, measurement, model matrices)
    once: the same graph object reuses its bound rows outright, and a
    new graph (a Levenberg-Marquardt trial with fresh damping priors)
    re-resolves only the factors that are not the very objects bound
    before.  Reuse is by factor identity, so a later call with new
    measurements — new factor objects — can never see stale numerics;
    factors are immutable once added to a graph.  It holds one template
    at a time: a call that moves to another structure starts afresh.

    The state is the template's instruction and CONST-value lists with
    every factor row bound for ``graph``, plus the bound rows per factor
    id (``bound``: ``fid -> (factor, rows)``).
    """

    __slots__ = ("table", "graph", "factors", "instructions", "pairs",
                 "bound")

    def __init__(self) -> None:
        self.table: Optional["BindingTable"] = None
        self.graph: Optional[FactorGraph] = None
        self.factors: List[Any] = []
        self.instructions: List[Instruction] = []
        self.pairs: List[Tuple[str, np.ndarray]] = []
        self.bound: Dict[int, Tuple[Any, List]] = {}


class BindingTable:
    """The value-bearing positions of one template program.

    Built once when a template (or a renamed variant of it) enters the
    cache.  Rows carry the template instruction to copy and the ``slot``
    of the CONST load among the program's CONSTs — the order in which
    the fused backend preloads them (see :meth:`repro.compiler.fused.
    FusedPlan.preload_constants`):

    - ``variables``: ``(key, reader, [(position, slot, instr), ...])``
      per variable field (pose rotation / translation, vector);
    - ``factors``: ``(fid, [(position, slot, instr, rank), ...])`` per
      factor, ``rank`` indexing :func:`~repro.compiler.library.
      factor_constants` (None for the whitening matrix);
    - ``embeds``: ``(position, fid, instr)`` per host-side EMBED.

    ``pairs`` is the template's ``(register, value)`` list over every
    CONST, static shape constants included.
    """

    __slots__ = ("compiled", "variables", "factors", "embeds", "pairs")

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        variables: Dict[Tuple[Key, str], List] = {}
        factors: Dict[int, List] = {}
        self.embeds: List[Tuple[int, int, Instruction]] = []
        self.pairs: List[Tuple[str, np.ndarray]] = []
        for position, instr in enumerate(compiled.program.instructions):
            spec = instr.meta.get("binding")
            if instr.op is Opcode.EMBED:
                if spec is None:
                    raise CompileError(
                        "EMBED instruction lacks a binding spec; template "
                        "was not compiled with binding tracking"
                    )
                self.embeds.append((position, spec[1], instr))
                continue
            if instr.op is not Opcode.CONST:
                continue
            slot = len(self.pairs)
            self.pairs.append((instr.dsts[0], np.asarray(
                instr.meta["value"], dtype=float)))
            if spec is None or spec[0] == BIND_STATIC:
                continue
            if spec[0] in _VARIABLE_READERS:
                variables.setdefault((spec[1], spec[0]), []).append(
                    (position, slot, instr))
            elif spec[0] in (BIND_NOISE, BIND_EXPR):
                factors.setdefault(spec[1], []).append(
                    (position, slot, instr, spec))
            else:
                raise CompileError(f"cannot resolve binding spec {spec!r}")
        self.variables = [(key, _VARIABLE_READERS[kind], rows)
                          for (key, kind), rows in variables.items()]
        # The forward pass loads every DAG constant node (the backward
        # pass may load one again), so a node's rank among its factor's
        # constant nodes is its index into factor_constants().
        self.factors = []
        for fid, rows in factors.items():
            nodes = sorted({spec[2] for *_, spec in rows
                            if spec[0] == BIND_EXPR})
            rank = {node: i for i, node in enumerate(nodes)}
            self.factors.append((fid, [
                (position, slot, instr,
                 None if spec[0] == BIND_NOISE else rank[spec[2]])
                for position, slot, instr, spec in rows
            ]))

    def check_factor_constants(self, graph: FactorGraph) -> None:
        """Raise unless :func:`~repro.compiler.library.factor_constants`
        reproduces the expression constants compiled into the template.

        Run once per cold-compiled template, against the graph it was
        compiled from: rebinds trust the rank order from then on.
        """
        from repro.compiler.library import factor_constants

        factors = graph.factors
        for fid, rows in self.factors:
            ranked = [(rank, instr) for _, _, instr, rank in rows
                      if rank is not None]
            if not ranked:
                continue
            factor = factors[fid]
            constants = factor_constants(factor)
            nodes = 1 + max(rank for rank, _ in ranked)
            if constants is None or len(constants) != nodes or \
                    not all(np.array_equal(np.asarray(constants[rank],
                                                      dtype=float),
                                           instr.meta["value"],
                                           equal_nan=True)
                            for rank, instr in ranked):
                raise CompileError(
                    f"factor_constants disagrees with the compiled "
                    f"expression of factor {fid} "
                    f"({type(factor).__name__})"
                )

    def _bind_factors(self, graph: FactorGraph,
                      constants: FactorConstants) -> None:
        """Bring ``constants`` to this table's factor rows for ``graph``."""
        if constants.table is self and constants.graph is graph:
            return
        reuse = constants.bound if constants.table is self else {}
        factors = graph.factors
        instructions = list(self.compiled.program.instructions)
        pairs = list(self.pairs)
        bound = {}
        for fid, rows in self.factors:
            factor = factors[fid]
            entry = reuse.get(fid)
            if entry is None or entry[0] is not factor:
                entry = (factor, _bind_factor(factor, rows))
            bound[fid] = entry
            for position, slot, instr, value in entry[1]:
                instructions[position] = instr
                pairs[slot] = (instr.dsts[0], value)
        constants.table = self
        constants.graph = graph
        constants.factors = factors
        constants.instructions = instructions
        constants.pairs = pairs
        constants.bound = bound

    def bind(self, graph: FactorGraph, values: Values,
             constants: Optional[FactorConstants] = None):
        """The template re-bound to ``(graph, values)``.

        Returns a new :class:`~repro.compiler.codegen.CompiledGraph`
        whose instruction stream is field-identical to a cold compile of
        ``(graph, values)`` in the template's namespace.  Only the rows
        of this table are visited; every other instruction is shared
        with the template.  The rebound program executes the template's
        fused plan (shared plan slot) and hands the plan its CONST
        values directly.
        """
        from repro.compiler.codegen import CompiledGraph
        from repro.compiler.fused import plan_slot

        if constants is None:
            constants = FactorConstants()
        self._bind_factors(graph, constants)
        instructions = list(constants.instructions)
        pairs = list(constants.pairs)
        for key, read, rows in self.variables:
            value = np.asarray(read(values, key), dtype=float)
            for position, slot, instr in rows:
                instructions[position] = _with_meta(
                    instr, {**instr.meta, "value": value})
                pairs[slot] = (instr.dsts[0], value)
        for position, fid, instr in self.embeds:
            instructions[position] = _with_meta(instr, {
                **instr.meta, "factor": constants.factors[fid],
                "values": values})

        template = self.compiled
        program = Program(algorithm=template.program.algorithm)
        program.instructions = instructions
        program.register_shapes = dict(template.program.register_shapes)
        program._counter = template.program._counter
        program._reg_counter = template.program._reg_counter
        program._fused_plan_slot = plan_slot(template.program)
        program._fused_const_pairs = pairs
        return CompiledGraph(
            program=program,
            row_blocks=list(template.row_blocks),
            solution_registers=dict(template.solution_registers),
            key_dims=dict(template.key_dims),
            ordering=list(template.ordering),
        )


def _renamed(template, template_prefix: str, algorithm: str,
             register_prefix: str):
    """``template`` moved into another register namespace / algorithm tag.

    A structural copy (numerics unchanged) that a variant's binding
    table is built on; register names are remapped by swapping the
    compile-time prefix.
    """
    from repro.compiler.codegen import CompiledGraph, RowBlock

    rmap = _build_rename_map(template.program.register_shapes,
                             template_prefix, register_prefix)
    program = Program(algorithm=algorithm)
    program._counter = template.program._counter
    program._reg_counter = template.program._reg_counter
    program.register_shapes = {
        rmap[reg]: shape
        for reg, shape in template.program.register_shapes.items()
    }
    for instr in template.program.instructions:
        meta = instr.meta
        if instr.op is Opcode.QR:
            meta = dict(meta)
            meta["sources"] = [{**source, "reg": rmap[source["reg"]]}
                               for source in meta["sources"]]
        program.instructions.append(Instruction(
            uid=instr.uid,
            op=instr.op,
            srcs=[rmap[s] for s in instr.srcs],
            dsts=[rmap[d] for d in instr.dsts],
            meta=meta,
            phase=instr.phase,
            algorithm=algorithm,
            provenance=instr.provenance,
        ))
    return CompiledGraph(
        program=program,
        row_blocks=[RowBlock(rmap[b.reg], b.rows, dict(b.cols))
                    for b in template.row_blocks],
        solution_registers={k: rmap[reg] for k, reg
                            in template.solution_registers.items()},
        key_dims=dict(template.key_dims),
        ordering=list(template.ordering),
    )


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------

@dataclass
class CacheEntry:
    """One cached compilation: the template, its compile-time tags and
    the binding tables it is rebound through."""

    compiled: "Any"             # CompiledGraph (import cycle with codegen)
    algorithm: str
    register_prefix: str
    table: BindingTable
    # Binding tables of renamed variants per (algorithm, prefix):
    # templates are rebound into the same few algorithm streams over and
    # over (e.g. control#0 .. control#4 every frame), so each renamed
    # template is built once.
    variants: Dict[Tuple[str, str], BindingTable] = field(
        default_factory=dict)


class CompilationCache:
    """LRU cache of compiled templates keyed by structural key.

    One lock covers every piece of shared state — the entries (lookup,
    insert, evict), the per-entry variant tables, the admission record
    and the hit/miss counters — so one cache can serve solves on several
    threads.  Cold compiles and rebinds run outside the lock.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        # Hashes of structural keys that one optimizer call has seen
        # but the cache has not admitted yet (see :meth:`admits`).
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seen.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    def evict(self, key: Tuple) -> bool:
        """Drop one entry (and its variants) by structural key.

        The supervised solve pipeline calls this when a rebound template
        fails its integrity check — a poisoned entry must be recompiled
        cold, not reused.  Returns whether the key was present.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is not None:
            counters.incr("compiler.cache.evictions")
        return entry is not None

    def templates(self) -> Dict[Tuple, "CacheEntry"]:
        """The live entries by structural key (for integrity tooling)."""
        with self._lock:
            return dict(self._entries)

    def admits(self, key: Tuple) -> bool:
        """Admit-on-reuse: should this cache serve a call on ``key``?

        True when the structure is cached, or when an earlier call has
        already seen it (the structure is admitted: the caller compiles
        it into this cache).  Otherwise the key's hash is recorded and
        the answer is False: the caller serves the call from a private
        cache, so a structure that is never reused never takes a slot.
        """
        with self._lock:
            if key in self._entries:
                return True
            seen = hash(key)
            if seen in self._seen:
                del self._seen[seen]
                admitted = True
            else:
                self._seen[seen] = None
                while len(self._seen) > 4 * self.max_entries:
                    self._seen.popitem(last=False)
                admitted = False
        counters.incr("compiler.cache.admit" if admitted
                      else "compiler.cache.deferred")
        return admitted

    def compile(self, graph: FactorGraph, values: Values,
                ordering: Optional[Sequence[Key]] = None, *,
                algorithm: str = "", register_prefix: str = "",
                extra: Tuple = (),
                structure: Optional[GraphStructure] = None,
                constants: Optional[FactorConstants] = None):
        """Compile with caching: cold compile on miss, rebind on hit.

        ``structure`` is the :func:`graph_structure` of the same
        arguments when the caller has already computed it; its
        ``outcome`` records what this call did.  ``constants`` carries
        factor-side numerics across the rebinds of one optimizer call
        (see :class:`FactorConstants`).
        """
        if structure is None:
            structure = graph_structure(graph, values, ordering, extra)
        with self._lock:
            entry = self._entries.get(structure.key)
            if entry is not None:
                self._entries.move_to_end(structure.key)
                self.hits += 1
        if entry is None:
            from repro.compiler.codegen import compile_graph

            compiled = compile_graph(graph, values, ordering,
                                     algorithm=algorithm,
                                     register_prefix=register_prefix)
            table = BindingTable(compiled)
            table.check_factor_constants(graph)
            with self._lock:
                self._entries[structure.key] = CacheEntry(
                    compiled, algorithm, register_prefix, table,
                )
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                self.misses += 1
            counters.incr("compiler.cache.miss")
            structure.outcome = OUTCOME_COMPILE
            return compiled

        counters.incr("compiler.cache.hit")
        started = time.perf_counter_ns()
        with trace.span("compiler.cache.rebind", category="compiler.pass",
                        algorithm=algorithm or ""):
            table = self._table(entry, algorithm, register_prefix)
            rebound = table.bind(graph, values, constants)
        counters.incr("compiler.cache.rebind_ns",
                      time.perf_counter_ns() - started)
        structure.outcome = OUTCOME_REBIND
        return rebound

    def _table(self, entry: CacheEntry, algorithm: str,
               register_prefix: str) -> BindingTable:
        """The binding table serving ``(algorithm, register_prefix)``."""
        if (algorithm == entry.algorithm
                and register_prefix == entry.register_prefix):
            return entry.table
        variant_key = (algorithm, register_prefix)
        with self._lock:
            table = entry.variants.get(variant_key)
        if table is None:
            table = BindingTable(_renamed(
                entry.compiled, entry.register_prefix, algorithm,
                register_prefix))
            with self._lock:
                table = entry.variants.setdefault(variant_key, table)
        return table


# ----------------------------------------------------------------------
# Process-wide default cache and enablement toggle
# ----------------------------------------------------------------------

_default_cache = CompilationCache()
_cache_enabled = os.environ.get("REPRO_COMPILE_CACHE", "1").lower() \
    not in ("0", "false", "off")


def default_cache() -> CompilationCache:
    return _default_cache


def cache_enabled() -> bool:
    return _cache_enabled


def set_cache_enabled(enabled: bool) -> bool:
    """Toggle the process-wide cache; returns the previous setting."""
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = bool(enabled)
    return previous


def clear_default_cache() -> None:
    _default_cache.clear()


def cached_compile_graph(graph: FactorGraph, values: Values,
                         ordering: Optional[Sequence[Key]] = None, *,
                         algorithm: str = "", register_prefix: str = "",
                         cache: Optional[CompilationCache] = None):
    """:func:`~repro.compiler.codegen.compile_graph` through the cache.

    With ``cache=None`` the process-wide default cache is used when
    enabled (see :func:`set_cache_enabled` and the
    ``REPRO_COMPILE_CACHE`` environment variable); when disabled this
    falls through to a plain cold compile.
    """
    active = cache
    if active is None and _cache_enabled:
        active = _default_cache
    if active is None:
        from repro.compiler.codegen import compile_graph

        return compile_graph(graph, values, ordering, algorithm=algorithm,
                             register_prefix=register_prefix)
    return active.compile(graph, values, ordering, algorithm=algorithm,
                          register_prefix=register_prefix)
