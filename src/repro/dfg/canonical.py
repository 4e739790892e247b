"""Canonical content fingerprints of DFGs and synthesis inputs.

The synthesis store (:mod:`repro.synthesis.store`) addresses memoized
results by *what was synthesized*, never by counter-generated module
names.  This module supplies the content side of those keys:

* :func:`canonical_fingerprint` — an isomorphism-invariant digest of a
  (sub-)DFG.  Two graphs that :func:`~repro.dfg.partition.
  clusters_isomorphic` would call interchangeable (primary ports
  positionally equal, operations by type, constants by value, edges by
  destination port) get the same fingerprint; the label scheme is the
  one the exact-isomorphism machinery in ``dfg/partition.py`` matches
  on.
* :func:`design_fingerprint` — the same digest with hierarchical nodes
  resolved recursively through a :class:`~repro.dfg.hierarchy.Design`,
  so a behavior name collision between two different designs cannot
  alias persistent-cache entries.
* :func:`graph_signature` — an identity-exact (node-id-pinned) digest,
  for cached values that reference concrete node ids (schedules).
* :func:`stream_digest`, :func:`library_signature`,
  :func:`config_signature` — digests of the remaining inputs a
  synthesis result depends on (characterization stimulus, cell/module
  library, search-shaping configuration).

Fingerprints are memoized on the DFG instance, guarded by the node and
edge counts: :class:`~repro.dfg.graph.DFG` is append-only (there is no
node or edge removal API), so unchanged counts imply an unchanged
graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .graph import DFG, NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hierarchy import Design

__all__ = [
    "canonical_fingerprint",
    "design_fingerprint",
    "graph_signature",
    "stream_digest",
    "library_signature",
    "config_signature",
    "search_config_items",
    "EXECUTION_ONLY",
]


def _digest(payload: object) -> str:
    """SHA-256 hex digest of a stable ``repr`` of *payload*.

    Keys are built from tuples of str/int/float/bool/None, whose
    ``repr`` is deterministic across processes (floats round-trip via
    the shortest-repr algorithm), so the digest is stable across runs.
    """
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


#: DFG → ``{token: (node count, edge count, digest)}``.  Weakly keyed,
#: so the memo never keeps a graph alive, and not an attribute of the
#: graph, so a graph pickles to the same bytes whether or not it was
#: fingerprinted first.
_MEMO: "weakref.WeakKeyDictionary[DFG, dict]" = weakref.WeakKeyDictionary()


def _memo_get(dfg: DFG, token: str) -> str | None:
    cache = _MEMO.get(dfg)
    if cache is None:
        return None
    hit = cache.get(token)
    if hit is None:
        return None
    n_nodes, n_edges, value = hit
    if n_nodes != len(dfg) or n_edges != dfg.n_edges:
        return None
    return value


def _memo_put(dfg: DFG, token: str, value: str) -> None:
    cache = _MEMO.get(dfg)
    if cache is None:
        cache = _MEMO[dfg] = {}
    cache[token] = (len(dfg), dfg.n_edges, value)


def _node_label(
    dfg: DFG,
    node_id: str,
    input_pos: dict[str, int],
    output_pos: dict[str, int],
    resolve: Callable[[str], str] | None,
) -> str:
    """Port-exact node label, following ``partition._body_graph``."""
    node = dfg.node(node_id)
    if node.kind == NodeKind.OP:
        return f"op:{node.op}:w{node.width}"
    if node.kind == NodeKind.CONST:
        return f"const:{node.value}:w{node.width}"
    if node.kind == NodeKind.INPUT:
        return f"in:{input_pos[node_id]}"
    if node.kind == NodeKind.OUTPUT:
        return f"out:{output_pos[node_id]}"
    assert node.kind == NodeKind.HIER and node.behavior is not None
    if resolve is not None:
        behavior = resolve(node.behavior)
    else:
        behavior = node.behavior
    return f"hier:{behavior}:{node.n_inputs}:{node.n_outputs}"


def canonical_fingerprint(
    dfg: DFG, resolve: Callable[[str], str] | None = None, _token: str = ""
) -> str:
    """Isomorphism-invariant fingerprint of *dfg* (SHA-256 hex digest).

    Nodes are numbered by a deterministic depth-first traversal from the
    ordered primary outputs, following each node's port-sorted in-edges;
    the numbering depends only on structure (every input port has
    exactly one driver, and output/input positions are part of a DFG's
    identity), so renaming nodes or reordering their insertion never
    changes the digest.  Equal digests imply the graphs are exactly
    isomorphic in the :func:`~repro.dfg.partition.clusters_isomorphic`
    sense on everything reachable from the outputs; nodes unreachable
    from any output are appended sorted by (label, node id), which can
    only split — never alias — keys.

    *resolve* maps a hierarchical node's behavior name to the label
    component used for it (see :func:`design_fingerprint`); ``None``
    uses the raw behavior name.  Results are memoized per DFG instance
    under ``_token`` (callers supplying *resolve* must pass a token
    identifying the resolution context).
    """
    cached = _memo_get(dfg, _token)
    if cached is not None:
        return cached

    input_pos = {nid: i for i, nid in enumerate(dfg.inputs)}
    output_pos = {nid: i for i, nid in enumerate(dfg.outputs)}
    index: dict[str, int] = {}
    order: list[str] = []
    for root in dfg.outputs:
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid in index:
                continue
            index[nid] = len(order)
            order.append(nid)
            # Reverse push so the port-0 driver is numbered first.
            for edge in reversed(dfg.in_edges(nid)):
                if edge.src not in index:
                    stack.append(edge.src)
    dead = [nid for nid in dfg.node_ids() if nid not in index]
    dead.sort(
        key=lambda nid: (
            _node_label(dfg, nid, input_pos, output_pos, resolve), nid
        )
    )
    for nid in dead:
        index[nid] = len(order)
        order.append(nid)

    serial = tuple(
        (
            _node_label(dfg, nid, input_pos, output_pos, resolve),
            tuple(
                (edge.dst_port, index[edge.src], edge.src_port)
                for edge in dfg.in_edges(nid)
            ),
        )
        for nid in order
    )
    header = (
        tuple(index[nid] for nid in dfg.inputs),
        tuple(index[nid] for nid in dfg.outputs),
    )
    value = _digest(("dfg", header, serial))
    _memo_put(dfg, _token, value)
    return value


def design_fingerprint(design: "Design", dfg: DFG) -> str:
    """Fingerprint of *dfg* with behaviors resolved through *design*.

    Hierarchical node labels embed the canonical fingerprints of every
    DFG variant registered for the behavior (recursively), so the digest
    pins the full sub-hierarchy's content — a prerequisite for sharing
    persistent-cache entries across runs without trusting behavior
    names.  Behaviors the design does not define (library-only
    behaviors) fall back to their name, which the store's library
    signature covers.  Hierarchies are acyclic by construction
    (:meth:`~repro.dfg.hierarchy.Design.check_hierarchy`), so the
    recursion terminates.
    """

    def resolve(behavior: str) -> str:
        if not design.has_behavior(behavior):
            return behavior
        parts = ",".join(
            design_fingerprint(design, variant)
            for variant in design.variants(behavior)
        )
        return f"[{parts}]"

    return canonical_fingerprint(dfg, resolve, _token=f"design:{design.name}")


def graph_signature(dfg: DFG) -> str:
    """Identity-exact digest of *dfg*: node ids, labels and edges.

    Unlike :func:`canonical_fingerprint` this is **not** isomorphism
    invariant — it pins concrete node ids, which is required when the
    cached value references them (a
    :class:`~repro.scheduling.model.ScheduleResult` keys its dicts by
    task and node ids).  Memoized per instance like the canonical
    fingerprint.
    """
    cached = _memo_get(dfg, "exact")
    if cached is not None:
        return cached
    nodes = tuple(
        (
            node.node_id,
            node.kind.value,
            str(node.op),
            node.behavior,
            node.value,
            node.width,
        )
        for node in dfg.nodes()
    )
    edges = tuple(
        sorted(
            (edge.src, edge.src_port, edge.dst, edge.dst_port)
            for edge in dfg.edges()
        )
    )
    value = _digest(
        ("graph", tuple(dfg.inputs), tuple(dfg.outputs), nodes, edges)
    )
    _memo_put(dfg, "exact", value)
    return value


def stream_digest(streams: Iterable) -> str:
    """Digest of the characterization stimulus (numpy value streams).

    Covers shape, dtype and raw bytes of every stream, in port order —
    a module characterized under different input streams has a
    different effective capacitance, so the stimulus belongs in the
    content key.
    """
    h = hashlib.sha256()
    for stream in streams:
        h.update(repr((stream.shape, stream.dtype.str)).encode("utf-8"))
        h.update(stream.tobytes())
    return h.hexdigest()


def library_signature(library) -> str:
    """Digest of everything synthesis reads from a module library.

    Captures the functional-unit/register/mux cells (name, kind,
    supported operations, area, delay, capacitance, chain length,
    pipelining), the behavior-equivalence classes, and every complex
    module (name, behaviors with profile and internal capacitance, and
    a per-cell summary of the structural netlist).  Two libraries with
    equal signatures price every solution identically, which is what
    makes the signature a sound cache-invalidation boundary.
    """

    def cell_sig(cell) -> tuple:
        return (
            cell.name,
            cell.kind.value,
            tuple(sorted(str(op) for op in cell.ops)),
            cell.area,
            cell.delay_ns,
            cell.cap,
            cell.chain_length,
            cell.pipelined,
        )

    def module_sig(module) -> tuple:
        impls = tuple(
            (
                behavior,
                module.profile(behavior).input_offsets_ns,
                module.profile(behavior).output_latencies_ns,
                module.cap_internal(behavior),
            )
            for behavior in sorted(module.behaviors())
        )
        netlist: dict[str, int] = {}
        for comp in module.netlist.components():
            token = f"{comp.kind.value}:{comp.cell}:w{comp.width}"
            netlist[token] = netlist.get(token, 0) + 1
        return (
            module.name,
            module.behavior,
            module.resynthesizable,
            impls,
            tuple(sorted(netlist.items())),
        )

    classes: dict[str, tuple[str, ...]] = {}
    registry = library.equivalences
    for behavior in list(getattr(registry, "_parent", {})):
        members = tuple(sorted(registry.equivalence_class(behavior)))
        classes[members[0]] = members
    payload = (
        "library",
        tuple(sorted(cell_sig(c) for c in library.cells())),
        cell_sig(library.register_cell),
        cell_sig(library.mux_cell),
        tuple(sorted(classes.values())),
        tuple(
            sorted(
                module_sig(m)
                for behavior in library.complex_behaviors()
                for m in library.complex_modules_for(behavior)
            )
        ),
    )
    return _digest(payload)


#: ``dataclasses.field`` metadata key marking an execution-only
#: ``SynthesisConfig`` field: one that changes how the run executes
#: (parallelism, persistence, tracing, debug cross-checking) but not
#: what any synthesis result contains.  Keying on such a field would
#: only split shareable cache entries.
EXECUTION_ONLY = "execution_only"


def search_config_items(config) -> tuple[tuple[str, Any], ...]:
    """``(name, value)`` of every field of a ``SynthesisConfig`` that is
    not marked :data:`EXECUTION_ONLY`, in declaration order.

    These are the fields that shape the search: pass/move limits,
    epsilon, feature toggles.  :func:`config_signature` digests them
    and a trace's ``run_start.config`` records them.
    """
    return tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if not f.metadata.get(EXECUTION_ONLY)
    )


def config_signature(config) -> str:
    """Digest of the search-shaping fields of a ``SynthesisConfig``
    (see :func:`search_config_items`)."""
    return _digest(("config", search_config_items(config)))
