"""Deriving hierarchy from flattened behavioral descriptions.

Section 1 of the paper splits hierarchical HLS into two subproblems:
(i) *deriving hierarchical information from a flattened behavioral
description*, and (ii) synthesizing from the hierarchy.  The paper
solves (ii); this module provides a working solution to (i) so the
library covers the full flow end to end.

Approach
--------
1. **Convex clustering** — operations are greedily grouped, in
   topological order, into clusters of bounded size.  A cluster must
   stay *convex*: no path may leave the cluster and re-enter it,
   otherwise the cluster cannot be scheduled as one atomic hierarchical
   node (its inputs would depend on its own outputs).
2. **Isomorphism folding** — clusters whose extracted DFGs are
   structurally identical (checked exactly with
   :func:`networkx.algorithms.isomorphism`, after a cheap
   Weisfeiler–Lehman hash pre-filter) are mapped onto one shared
   behavior, exactly the replicated-block structure hierarchical
   synthesis exploits (one RTL module serving many nodes).

The result is a :class:`~repro.dfg.hierarchy.Design` whose flattening
is functionally identical to the input — a property the test suite
verifies by bit-true simulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import DFGError
from .graph import DFG, NodeKind, Signal
from .hierarchy import Design

# networkx is imported inside the functions that use it: it is slow to
# import, and nothing but hierarchy recovery needs it.
if TYPE_CHECKING:
    import networkx as nx

__all__ = ["hierarchize", "convex_clusters", "clusters_isomorphic"]


# ----------------------------------------------------------------------
# Clustering
# ----------------------------------------------------------------------

def _op_graph(dfg: DFG) -> nx.DiGraph:
    """Directed graph over operation nodes only."""
    import networkx as nx

    graph = nx.DiGraph()
    for node in dfg.operation_nodes():
        graph.add_node(node.node_id)
    for edge in dfg.edges():
        if dfg.node(edge.src).is_operation and dfg.node(edge.dst).is_operation:
            graph.add_edge(edge.src, edge.dst)
    return graph


def _is_convex(graph: nx.DiGraph, cluster: set[str]) -> bool:
    """No path may exit the cluster and come back.

    Equivalent check: no node outside the cluster lies on a path from a
    cluster node to a cluster node, i.e. descendants(cluster) ∩
    ancestors(cluster) ⊆ cluster.
    """
    import networkx as nx

    outside_between: set[str] = set()
    descendants: set[str] = set()
    for node in cluster:
        descendants.update(nx.descendants(graph, node))
    descendants -= cluster
    for node in descendants:
        if any(succ in cluster for succ in nx.descendants(graph, node)):
            outside_between.add(node)
            break
    return not outside_between


def _quotient_acyclic(
    graph: nx.DiGraph, cluster_of: dict[str, int], trial: dict[str, int]
) -> bool:
    """The contracted (one node per cluster) graph must stay a DAG.

    This is strictly stronger than per-cluster convexity: two
    individually convex clusters can still feed each other (A→B and
    B→A through unconnected members), which would deadlock atomic
    hierarchical nodes.  ``trial`` overrides assignments for the nodes
    being (re)placed.
    """
    import networkx as nx

    quotient = nx.DiGraph()
    assignment = dict(cluster_of)
    assignment.update(trial)
    for src, dst in graph.edges:
        cs = assignment.get(src)
        cd = assignment.get(dst)
        if cs is None or cd is None or cs == cd:
            continue
        quotient.add_edge(cs, cd)
    return nx.is_directed_acyclic_graph(quotient)


def convex_clusters(
    dfg: DFG, max_cluster_size: int = 8, min_cluster_size: int = 2
) -> list[list[str]]:
    """Greedy convex clustering of a flat DFG's operations.

    Operations are visited in topological order; each joins the cluster
    of one of its operation predecessors when the merged cluster stays
    within ``max_cluster_size`` and convex, otherwise it seeds a new
    cluster.  Clusters smaller than ``min_cluster_size`` are returned
    as singletons (they stay plain operations in the hierarchy).
    """
    if dfg.hier_nodes():
        raise DFGError("convex_clusters expects a flat DFG")
    graph = _op_graph(dfg)
    cluster_of: dict[str, int] = {}
    members: dict[int, set[str]] = {}
    next_id = 0

    for nid in dfg.topo_order():
        if not dfg.node(nid).is_operation:
            continue
        # Candidate clusters: those of operation predecessors.
        candidates: list[int] = []
        for pred in graph.predecessors(nid):
            cid = cluster_of[pred]
            if cid not in candidates:
                candidates.append(cid)
        placed = False
        # Prefer the fullest predecessor cluster (densest packing).
        candidates.sort(key=lambda c: -len(members[c]))
        for cid in candidates:
            merged = members[cid] | {nid}
            if len(merged) > max_cluster_size:
                continue
            if _is_convex(graph, merged) and _quotient_acyclic(
                graph, cluster_of, {nid: cid}
            ):
                members[cid].add(nid)
                cluster_of[nid] = cid
                placed = True
                break
        if not placed:
            members[next_id] = {nid}
            cluster_of[nid] = next_id
            next_id += 1

    _repair_quotient_cycles(graph, members, cluster_of)

    ordered: list[list[str]] = []
    order_index = {nid: i for i, nid in enumerate(dfg.topo_order())}
    for cid in sorted(members, key=lambda c: min(order_index[n] for n in members[c])):
        ordered.append(sorted(members[cid], key=lambda n: order_index[n]))
    return ordered


def _repair_quotient_cycles(
    graph: nx.DiGraph,
    members: dict[int, set[str]],
    cluster_of: dict[str, int],
) -> None:
    """Break residual quotient cycles by dissolving clusters.

    The greedy growth checks acyclicity on every merge, but a *new
    singleton* placed later can still close a cycle through two earlier
    clusters (it is never merged, so it is never checked).  Dissolving
    the largest cluster on each remaining cycle into singletons strictly
    reduces total cluster mass, so this terminates — in the worst case
    at the original flat graph, which is a DAG.
    """
    import networkx as nx

    while True:
        quotient = nx.DiGraph()
        quotient.add_nodes_from(members)
        for src, dst in graph.edges:
            cs, cd = cluster_of[src], cluster_of[dst]
            if cs != cd:
                quotient.add_edge(cs, cd)
        try:
            cycle = nx.find_cycle(quotient)
        except nx.NetworkXNoCycle:
            return
        on_cycle = {u for u, _v in cycle}
        victim = max(on_cycle, key=lambda c: (len(members[c]), c))
        nodes = sorted(members.pop(victim))
        next_id = max(members, default=victim) + 1
        for node in nodes:
            members[next_id] = {node}
            cluster_of[node] = next_id
            next_id += 1


# ----------------------------------------------------------------------
# Cluster extraction and isomorphism folding
# ----------------------------------------------------------------------

@dataclass
class _Cluster:
    """A cluster plus its interface, ready to become a behavior."""

    nodes: list[str]
    #: External signals consumed, in a canonical order.
    inputs: list[Signal]
    #: Internal signals visible outside, in a canonical order.
    outputs: list[Signal]
    body: DFG


def _extract_cluster(dfg: DFG, nodes: list[str], name: str) -> _Cluster:
    """Build the sub-DFG a cluster implements, plus its port lists."""
    inside = set(nodes)
    inputs: list[Signal] = []
    for nid in nodes:
        for edge in dfg.in_edges(nid):
            src_node = dfg.node(edge.src)
            if edge.src in inside or src_node.kind == NodeKind.CONST:
                continue
            if edge.signal not in inputs:
                inputs.append(edge.signal)
    outputs: list[Signal] = []
    for nid in nodes:
        node = dfg.node(nid)
        for port in range(node.n_outputs):
            signal = (nid, port)
            for consumer in dfg.consumers(signal):
                if consumer.dst not in inside:
                    if signal not in outputs:
                        outputs.append(signal)
                    break

    body = DFG(name, behavior=name)
    for idx, _signal in enumerate(inputs):
        body.add_input(f"in{idx}")
    sig_map: dict[Signal, Signal] = {s: (f"in{i}", 0) for i, s in enumerate(inputs)}
    for nid in nodes:
        node = dfg.node(nid)
        if node.kind != NodeKind.OP:
            raise DFGError("clusters may only contain simple operations")
        assert node.op is not None
        body.add_op(nid, node.op, width=node.width)
        for edge in dfg.in_edges(nid):
            src_node = dfg.node(edge.src)
            if src_node.kind == NodeKind.CONST:
                const_id = f"k_{edge.src}"
                if not body.has_node(const_id):
                    assert src_node.value is not None
                    body.add_const(const_id, src_node.value, width=src_node.width)
                body.connect(const_id, 0, nid, edge.dst_port)
            else:
                src, src_port = sig_map[edge.signal]
                body.connect(src, src_port, nid, edge.dst_port)
        sig_map[(nid, 0)] = (nid, 0)
    for idx, signal in enumerate(outputs):
        body.add_output(f"out{idx}")
        src, src_port = sig_map[signal]
        body.connect(src, src_port, f"out{idx}", 0)
    return _Cluster(nodes, inputs, outputs, body)


def _body_graph(body: DFG) -> nx.DiGraph:
    import networkx as nx

    graph = nx.DiGraph()
    for node in body.nodes():
        label = node.kind.value
        if node.kind == NodeKind.OP:
            label = f"op:{node.op}"
        elif node.kind == NodeKind.CONST:
            label = f"const:{node.value}"
        elif node.kind == NodeKind.INPUT:
            label = f"in:{body.inputs.index(node.node_id)}"
        elif node.kind == NodeKind.OUTPUT:
            label = f"out:{body.outputs.index(node.node_id)}"
        graph.add_node(node.node_id, label=label)
    for edge in body.edges():
        graph.add_edge(edge.src, edge.dst, port=edge.dst_port)
    return graph


def clusters_isomorphic(body_a: DFG, body_b: DFG) -> bool:
    """Exact structural equality of two cluster bodies.

    Port-exact: primary inputs/outputs match positionally, operations
    by type, constants by value, edges by destination port — so two
    isomorphic bodies are interchangeable implementations of one
    behavior.
    """
    import networkx as nx

    ga, gb = _body_graph(body_a), _body_graph(body_b)
    with warnings.catch_warnings():
        # networkx >= 3.5 warns that directed WL hashes changed; we only
        # ever compare hashes computed by the same version, as a
        # pre-filter before the exact isomorphism check.
        warnings.simplefilter("ignore", UserWarning)
        hash_a = nx.weisfeiler_lehman_graph_hash(ga, node_attr="label", edge_attr="port")
        hash_b = nx.weisfeiler_lehman_graph_hash(gb, node_attr="label", edge_attr="port")
    if hash_a != hash_b:
        return False
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        ga,
        gb,
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["port"] == b["port"],
    )
    return matcher.is_isomorphic()


def hierarchize(
    dfg: DFG,
    max_cluster_size: int = 8,
    min_cluster_size: int = 2,
    name: str | None = None,
) -> Design:
    """Derive a hierarchical design from a flat DFG (subproblem (i)).

    Clusters of at least ``min_cluster_size`` operations become
    behaviors (isomorphic clusters share one); smaller clusters stay as
    plain operations at the top level.  Flattening the result is
    functionally identical to the input DFG.
    """
    clusters = convex_clusters(dfg, max_cluster_size, min_cluster_size)
    design = Design(name or f"{dfg.name}_hier")

    extracted: list[_Cluster | None] = []
    behavior_reps: list[tuple[str, _Cluster]] = []
    cluster_behavior: dict[int, str] = {}
    for idx, nodes in enumerate(clusters):
        if len(nodes) < min_cluster_size:
            extracted.append(None)
            continue
        cluster = _extract_cluster(dfg, nodes, f"block{len(behavior_reps)}")
        if not cluster.inputs or not cluster.outputs:
            # Const-only feeds or dead code: a hierarchical node needs at
            # least one input and one output, so these stay plain ops.
            extracted.append(None)
            continue
        matched = None
        for behavior, representative in behavior_reps:
            if (
                len(representative.inputs) == len(cluster.inputs)
                and len(representative.outputs) == len(cluster.outputs)
                and clusters_isomorphic(representative.body, cluster.body)
            ):
                matched = behavior
                break
        if matched is None:
            matched = cluster.body.behavior
            behavior_reps.append((matched, cluster))
            design.add_dfg(cluster.body)
        cluster_behavior[idx] = matched
        extracted.append(cluster)

    # Rebuild the top level with hierarchical nodes in place of clusters.
    top = DFG(f"{dfg.name}_top", behavior=dfg.behavior)
    sig_map: dict[Signal, Signal] = {}

    for input_id in dfg.inputs:
        top.add_input(input_id, width=dfg.node(input_id).width)
        sig_map[(input_id, 0)] = (input_id, 0)
    for node in dfg.nodes():
        if node.kind == NodeKind.CONST:
            assert node.value is not None
            top.add_const(node.node_id, node.value, width=node.width)
            sig_map[(node.node_id, 0)] = (node.node_id, 0)

    # Placement units: each cluster is one unit, every other operation
    # its own unit.  Units are ordered by their own dependence DAG —
    # the flat graph's topological order is not enough, because cluster
    # members need not be adjacent in it (convexity only forbids paths
    # that leave and re-enter).
    cluster_index: dict[str, int] = {}
    for idx, nodes in enumerate(clusters):
        if extracted[idx] is not None:
            for nid in nodes:
                cluster_index[nid] = idx

    def unit_of(nid: str) -> tuple:
        idx = cluster_index.get(nid)
        return ("cluster", idx) if idx is not None else ("op", nid)

    unit_deps: dict[tuple, set[tuple]] = {}
    for node in dfg.operation_nodes():
        unit = unit_of(node.node_id)
        deps = unit_deps.setdefault(unit, set())
        for edge in dfg.in_edges(node.node_id):
            src_node = dfg.node(edge.src)
            if not src_node.is_operation:
                continue
            src_unit = unit_of(edge.src)
            if src_unit != unit:
                deps.add(src_unit)

    order: list[tuple] = []
    pending = {unit: set(deps) for unit, deps in unit_deps.items()}
    while pending:
        ready = sorted((u for u, d in pending.items() if not d), key=str)
        if not ready:
            raise DFGError("hierarchize: cluster dependence graph has a cycle")
        for unit in ready:
            order.append(unit)
            del pending[unit]
        for deps in pending.values():
            deps.difference_update(ready)

    for kind, key in order:
        if kind == "op":
            node = dfg.node(key)
            assert node.op is not None
            top.add_op(key, node.op, width=node.width)
            for edge in dfg.in_edges(key):
                src, src_port = sig_map[edge.signal]
                top.connect(src, src_port, key, edge.dst_port)
            sig_map[(key, 0)] = (key, 0)
            continue
        cluster = extracted[key]
        assert cluster is not None
        hier_id = f"blk{key}"
        top.add_hier(
            hier_id,
            cluster_behavior[key],
            n_inputs=len(cluster.inputs),
            n_outputs=len(cluster.outputs),
        )
        for port, signal in enumerate(cluster.inputs):
            src, src_port = sig_map[signal]
            top.connect(src, src_port, hier_id, port)
        for port, signal in enumerate(cluster.outputs):
            sig_map[signal] = (hier_id, port)

    for output_id in dfg.outputs:
        top.add_output(output_id, width=dfg.node(output_id).width)
        (edge,) = dfg.in_edges(output_id)
        src, src_port = sig_map[edge.signal]
        top.connect(src, src_port, output_id, 0)

    design.add_dfg(top, top=True)
    return design
