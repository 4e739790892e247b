"""RTL embedding: executing two behaviors on one RTL module (Example 3).

The paper's technique for merging complex modules "simply constructs a
new RTL module in which the original RTL modules can be embedded.  The
goal ... is to find the minimum area embedding (including a measure of
interconnect) which satisfies clock cycle constraints".  The schedule
and binding of each constituent behavior are left untouched; the merged
module cannot run the behaviors in parallel.

Formulation
-----------
Components of the two netlists may be overlaid only within a
*compatibility class* (identical library cell for functional units, the
register class for registers; module boundary ports overlay
positionally).  Because matched components are cycle-identical, each
behavior's original schedule runs unchanged on the merged module, which
is how clock-cycle constraints are honored by construction — the only
additions are multiplexers on ports that end up with several sources.

Finding the overlay that maximizes shared interconnect is a quadratic
assignment problem, which is NP-hard; like the paper we need the
procedure to be *fast* because the iterative engine evaluates many
merge candidates.  We use per-class weighted bipartite matching on a
neighborhood-similarity score, refined by a few rounds in which the
score is the *exact* number of connections shared given the rest of the
current mapping.  The matching is :func:`linear_sum_assignment`, an
in-tree port of the solver ``scipy.optimize.linear_sum_assignment``
runs; the matrices are a few components a side, and scores tie often,
so the port keeps scipy's tie rules and picks the same optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import EmbeddingError
from .components import Component, ComponentKind, Connection, DatapathNetlist

__all__ = [
    "EmbeddingResult",
    "embed_netlists",
    "linear_sum_assignment",
    "naive_union",
]


@dataclass
class EmbeddingResult:
    """Outcome of overlaying netlist B onto netlist A.

    ``map_a``/``map_b`` send original component ids to merged ids (map_a
    is the identity — A's ids are kept).  ``shared_components`` and
    ``shared_connections`` quantify how much hardware the behaviors
    reuse; Table 2 of the paper is exactly ``map_a``/``map_b`` rendered
    as a correspondence table.
    """

    netlist: DatapathNetlist
    map_a: dict[str, str]
    map_b: dict[str, str]
    shared_components: int
    shared_connections: int


def _compat_class(comp: Component) -> tuple:
    """Components may only be overlaid within the same class.

    Width is part of the class: a 16-bit adder cannot impersonate a
    24-bit one (overlaying onto the wider unit would be possible but is
    conservatively not attempted).
    """
    if comp.kind == ComponentKind.REGISTER:
        return (ComponentKind.REGISTER, "reg", comp.width)
    if comp.kind == ComponentKind.PORT:
        # Ports overlay positionally, never via matching.
        return (ComponentKind.PORT, comp.comp_id)
    return (comp.kind, comp.cell, comp.width)


def _neighborhood(netlist: DatapathNetlist, comp_id: str) -> set[tuple]:
    """Port-accurate neighborhood fingerprint of a component.

    Two components whose fingerprints overlap a lot will share wires
    when overlaid, so fingerprint intersection is the first-round
    matching score.
    """
    finger: set[tuple] = set()
    for conn in netlist.connections():
        if conn.src == comp_id:
            partner = netlist.component(conn.dst)
            finger.add(("out", conn.src_port, _compat_class(partner), conn.dst_port))
        if conn.dst == comp_id:
            partner = netlist.component(conn.src)
            finger.add(("in", conn.dst_port, _compat_class(partner), conn.src_port))
    return finger


def _exact_shared(
    net_a: DatapathNetlist,
    net_b: DatapathNetlist,
    map_b: dict[str, str],
    b_comp: str,
    a_comp: str,
) -> int:
    """Connections of B incident to *b_comp* that land on existing A wires
    if *b_comp* is overlaid onto *a_comp* with the rest of ``map_b`` fixed."""
    conns_a = set(net_a.connections())
    shared = 0
    for conn in net_b.connections():
        if conn.src != b_comp and conn.dst != b_comp:
            continue
        src = a_comp if conn.src == b_comp else map_b.get(conn.src)
        dst = a_comp if conn.dst == b_comp else map_b.get(conn.dst)
        if src is None or dst is None:
            continue
        if Connection(src, conn.src_port, dst, conn.dst_port) in conns_a:
            shared += 1
    return shared


def linear_sum_assignment(
    cost: Sequence[Sequence[float]],
) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of rows to columns: ``(rows, cols)``.

    A port of the shortest augmenting path solver (Crouse, "On
    implementing 2D rectangular assignment algorithms", 2016) that
    ``scipy.optimize.linear_sum_assignment`` runs, with the same float
    operations in the same order and the same tie rules, so it returns
    scipy's pairs even when several assignments are optimal: the
    remaining columns are scanned in reverse order, an unassigned column
    wins a tie on reduced cost, and a tall matrix is solved transposed,
    its pairs then sorted by row.  Costs must be finite.
    """
    matrix = [[float(x) for x in row] for row in cost]
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        matrix = [list(col) for col in zip(*matrix)]
        nr, nc = nc, nr
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row to an unassigned column.
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        sr = [False] * nr
        sc = [False] * nc
        short = [math.inf] * nc
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            sr[i] = True
            row = matrix[i]
            u_i = u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                if short[j] < lowest or (
                    short[j] == lowest and row4col[j] == -1
                ):
                    lowest = short[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise EmbeddingError("assignment cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the dual variables, then augment along the path.
        u[cur_row] += min_val
        for i in range(nr):
            if sr[i] and i != cur_row:
                u[i] += min_val - short[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


def _match_class(
    comps_a: list[str],
    comps_b: list[str],
    score: list[list[float]],
) -> dict[str, str]:
    """Maximum-weight bipartite matching B→A for one compatibility class."""
    if not comps_a or not comps_b:
        return {}
    rows, cols = linear_sum_assignment([[-x for x in row] for row in score])
    mapping: dict[str, str] = {}
    for r, c in zip(rows, cols):
        mapping[comps_b[c]] = comps_a[r]
    return mapping


def embed_netlists(
    net_a: DatapathNetlist,
    net_b: DatapathNetlist,
    name: str,
    refine_rounds: int = 2,
) -> EmbeddingResult:
    """Overlay *net_b* onto *net_a*, producing the merged netlist.

    Every component of A appears in the result under its own id;
    components of B are either overlaid onto a compatible A component or
    added fresh (with a ``~b`` suffix on id collisions).  Module
    boundary PORT components overlay by identical id; if B has ports A
    lacks, they are added.
    """
    by_class_a: dict[tuple, list[str]] = {}
    by_class_b: dict[tuple, list[str]] = {}
    for comp in net_a.components():
        if comp.kind != ComponentKind.PORT:
            by_class_a.setdefault(_compat_class(comp), []).append(comp.comp_id)
    for comp in net_b.components():
        if comp.kind != ComponentKind.PORT:
            by_class_b.setdefault(_compat_class(comp), []).append(comp.comp_id)

    # Ports overlay by id (positional by construction of the builders).
    map_b: dict[str, str] = {}
    for comp in net_b.components(ComponentKind.PORT):
        map_b[comp.comp_id] = comp.comp_id

    # Round 0: neighborhood-similarity matching per class.
    fingers_a = {c.comp_id: _neighborhood(net_a, c.comp_id) for c in net_a.components()}
    fingers_b = {c.comp_id: _neighborhood(net_b, c.comp_id) for c in net_b.components()}
    for cls, comps_b in by_class_b.items():
        comps_a = by_class_a.get(cls, [])
        if not comps_a:
            continue
        score = [
            [len(fingers_a[ca] & fingers_b[cb]) + 0.01 for cb in comps_b]
            for ca in comps_a
        ]
        map_b.update(_match_class(comps_a, comps_b, score))

    # Refinement: re-match each class with exact shared-wire counts under
    # the current global mapping.
    for _ in range(refine_rounds):
        for cls, comps_b in by_class_b.items():
            comps_a = by_class_a.get(cls, [])
            if not comps_a:
                continue
            trial_map = dict(map_b)
            for cb in comps_b:
                trial_map.pop(cb, None)
            score = [
                [
                    _exact_shared(net_a, net_b, trial_map, cb, ca) + 0.01
                    for cb in comps_b
                ]
                for ca in comps_a
            ]
            map_b.update(_match_class(comps_a, comps_b, score))

    return _build_merged(net_a, net_b, map_b, name)


def _build_merged(
    net_a: DatapathNetlist,
    net_b: DatapathNetlist,
    map_b: dict[str, str],
    name: str,
) -> EmbeddingResult:
    merged = DatapathNetlist(name)
    map_a: dict[str, str] = {}
    for comp in net_a.components():
        merged.add_component(comp.comp_id, comp.kind, comp.cell, width=comp.width)
        map_a[comp.comp_id] = comp.comp_id

    shared_components = 0
    for comp in net_b.components():
        target = map_b.get(comp.comp_id)
        if target is not None and merged.has_component(target):
            existing = merged.component(target)
            if _compat_class(existing) != _compat_class(comp):
                raise EmbeddingError(
                    f"mapping of {comp.comp_id!r} onto {target!r} crosses "
                    "compatibility classes"
                )
            if comp.kind != ComponentKind.PORT:
                shared_components += 1
            continue
        fresh = comp.comp_id
        if merged.has_component(fresh):
            fresh = f"{fresh}~b"
            suffix = 2
            while merged.has_component(fresh):
                fresh = f"{comp.comp_id}~b{suffix}"
                suffix += 1
        merged.add_component(fresh, comp.kind, comp.cell, width=comp.width)
        map_b[comp.comp_id] = fresh

    for conn in net_a.connections():
        merged.connect(conn.src, conn.src_port, conn.dst, conn.dst_port)
    before = merged.n_connections()
    for conn in net_b.connections():
        merged.connect(
            map_b[conn.src], conn.src_port, map_b[conn.dst], conn.dst_port
        )
    shared_connections = before + len(net_b.connections()) - merged.n_connections()

    return EmbeddingResult(
        netlist=merged,
        map_a=map_a,
        map_b=map_b,
        shared_components=shared_components,
        shared_connections=shared_connections,
    )


def naive_union(
    net_a: DatapathNetlist, net_b: DatapathNetlist, name: str
) -> EmbeddingResult:
    """Disjoint union (no component sharing) — the ablation baseline.

    Models what a hierarchical system *without* RTL embedding pays for a
    module that must support both behaviors: the hardware of both, side
    by side (only boundary ports are shared).
    """
    map_b = {
        comp.comp_id: comp.comp_id for comp in net_b.components(ComponentKind.PORT)
    }
    return _build_merged(net_a, net_b, map_b, name)
