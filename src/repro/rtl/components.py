"""Datapath netlist model: components, connections, mux inference.

An RTL module is "an interconnection of RTL modules, functional units,
multiplexers and registers" (Section 2).  We represent the multiplexers
implicitly: whenever several distinct sources drive the same input port
of a component, a mux tree with ``n_sources - 1`` two-to-one legs is
inferred.  This keeps move evaluation cheap (adding/removing a
connection automatically adjusts mux cost) and matches how the paper's
embedding procedure accounts for "a measure of interconnect".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..errors import DFGError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..library.library import ModuleLibrary

__all__ = [
    "ComponentKind",
    "Component",
    "Connection",
    "DatapathNetlist",
    "WIRE_AREA_PER_CONNECTION",
    "cell_area",
]

#: Routing-area estimate per point-to-point connection, in the same
#: normalized units as cell areas.  Stands in for the paper's placed-and-
#: routed interconnect measure; OCTTOOLS-era standard-cell layouts spend
#: a large fraction of their area on routing channels, which is what
#: keeps heavily multiplexed "share everything" datapaths from being
#: free.
WIRE_AREA_PER_CONNECTION = 2.0

#: id(library) → (library, {cell name: area}) — see :func:`cell_area`.
_CELL_AREAS: dict = {}


def cell_area(library: "ModuleLibrary", cell: str) -> float:
    """Area of one library cell at :data:`REFERENCE_WIDTH`.

    Resolved once per library, not once per component per netlist
    (thousands of netlists per pricing step share one library).  The
    library is pinned in the memo value, same idiom as the activity
    caches.
    """
    entry = _CELL_AREAS.get(id(library))
    if entry is None or entry[0] is not library:
        if len(_CELL_AREAS) >= 8:
            _CELL_AREAS.clear()
        entry = (library, {})
        _CELL_AREAS[id(library)] = entry
    areas = entry[1]
    area = areas.get(cell)
    if area is None:
        area = library.cell(cell).area
        areas[cell] = area
    return area


class ComponentKind(enum.Enum):
    """Structural class of a datapath component."""

    FUNCTIONAL = "fu"
    REGISTER = "reg"
    MODULE = "module"  # an embedded complex RTL module instance
    PORT = "port"      # module boundary pin (primary input/output)


#: Bit width the library cells are characterized at.
REFERENCE_WIDTH = 16


class Component(NamedTuple):
    """One datapath component instance.

    ``cell`` names the library cell (for FUNCTIONAL/REGISTER) or the
    complex RTL module type (for MODULE); PORT components have cell
    ``"in"`` or ``"out"``.  ``width`` is the datapath bit width of this
    instance; cell characterization is at :data:`REFERENCE_WIDTH`, and
    area scales linearly with width (ripple structures; multipliers are
    conservatively linear too since their operand registers and wiring
    dominate at these widths).  A named tuple for the same hot-path
    reason as :class:`Connection`.
    """

    comp_id: str
    kind: ComponentKind
    cell: str
    width: int = REFERENCE_WIDTH

    @property
    def width_factor(self) -> float:
        """Area scale of this instance relative to :data:`REFERENCE_WIDTH`."""
        return self.width / REFERENCE_WIDTH


class Connection(NamedTuple):
    """A point-to-point wire between two component ports.

    A named tuple rather than a dataclass: netlists are rebuilt per
    candidate move, and constructing/hashing tens of thousands of these
    per pricing step is measurably cheaper at C speed.
    """

    src: str
    src_port: int
    dst: str
    dst_port: int


class DatapathNetlist:
    """A set of components plus the wires between them."""

    def __init__(self, name: str):
        self.name = name
        self._components: dict[str, Component] = {}
        self._connections: set[Connection] = set()
        self._invalidate()

    def _invalidate(self) -> None:
        #: Memoized fan-in map, per-library area and sorted connection
        #: list, dropped by the two mutators below.  Cost evaluation
        #: asks for the first two several times per netlist (glitch
        #: counting, mux inference, area, controller sizing), and
        #: module netlists are re-priced on every move.
        self._fanin_cache: dict[tuple[str, int], int] | None = None
        #: id(library) → (library, area).  The library reference is kept
        #: in the value to pin its id (same idiom as the stream-activity
        #: cache in repro.power.activity).
        self._area_cache: dict[int, tuple[object, float]] = {}
        self._sorted_conns: list[Connection] | None = None

    def __reduce__(self):
        """Pickle as ``DatapathNetlist(name)`` with :meth:`__getstate__`'s
        state, subclasses too: a netlist derived from blocks and the
        plain one it loads as then pickle to the same bytes."""
        return (DatapathNetlist, (self.name,), self.__getstate__())

    def __getstate__(self) -> dict:
        """Pickled state: the name, components and connections only.

        The caches are cheap to rebuild, and the area cache would drag
        a copy of every library it was asked about into the pickle.
        Connections are stored as the sorted :meth:`connections` list:
        the set's iteration order follows string hashes, so pickling it
        would make stored blobs differ between processes.
        """
        return {
            "name": self.name,
            "_components": self._components,
            "_connections": self.connections(),
        }

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled netlist with empty caches.

        Netlists pickled before :meth:`__getstate__` existed carry their
        whole ``__dict__``, caches included, and older blobs carry the
        connections as a set; only the three fields above are taken.
        """
        self.name = state["name"]
        self._components = state["_components"]
        self._connections = set(state["_connections"])
        self._invalidate()

    # ------------------------------------------------------------------
    def add_component(
        self,
        comp_id: str,
        kind: ComponentKind,
        cell: str,
        width: int = REFERENCE_WIDTH,
    ) -> Component:
        """Add one component; its id must be new to this netlist."""
        if comp_id in self._components:
            raise DFGError(f"duplicate component {comp_id!r} in netlist {self.name!r}")
        comp = Component(comp_id, kind, cell, width=width)
        self._components[comp_id] = comp
        self._invalidate()
        return comp

    def connect(self, src: str, src_port: int, dst: str, dst_port: int) -> Connection:
        """Wire an output port to an input port of two existing components."""
        for comp_id in (src, dst):
            if comp_id not in self._components:
                raise DFGError(f"unknown component {comp_id!r} in netlist {self.name!r}")
        conn = Connection(src, src_port, dst, dst_port)
        self._connections.add(conn)
        self._invalidate()
        return conn

    # ------------------------------------------------------------------
    def component(self, comp_id: str) -> Component:
        """Look up a component by id (DFGError if unknown)."""
        try:
            return self._components[comp_id]
        except KeyError:
            raise DFGError(
                f"unknown component {comp_id!r} in netlist {self.name!r}"
            ) from None

    def has_component(self, comp_id: str) -> bool:
        """True when a component with this id exists."""
        return comp_id in self._components

    def components(self, kind: ComponentKind | None = None) -> list[Component]:
        """Components in insertion order, optionally of one kind only."""
        if kind is None:
            return list(self._components.values())
        return [c for c in self._components.values() if c.kind == kind]

    def connections(self) -> list[Connection]:
        """All connections, deterministically ordered (read-only list)."""
        if self._sorted_conns is None:
            self._sorted_conns = sorted(
                self._connections,
                key=lambda c: (c.dst, c.dst_port, c.src, c.src_port),
            )
        return self._sorted_conns

    def sources_of(self, dst: str, dst_port: int) -> list[tuple[str, int]]:
        """Distinct sources driving one input port (mux fan-in)."""
        return sorted(
            {(c.src, c.src_port) for c in self._connections
             if c.dst == dst and c.dst_port == dst_port}
        )

    def fanin_ports(self) -> dict[tuple[str, int], int]:
        """Map (component, input port) → number of distinct sources."""
        if self._fanin_cache is not None:
            return self._fanin_cache
        fanin: dict[tuple[str, int], int] = {}
        for conn in self._connections:
            key = (conn.dst, conn.dst_port)
            fanin[key] = fanin.get(key, 0) + 1
        # Count distinct sources, not raw connections (sets dedupe already).
        self._fanin_cache = fanin
        return fanin

    def multi_source_ports(self) -> list[tuple[str, int, int, int]]:
        """Ports with a mux: ``(component, port, fan-in, component width)``.

        One row per input port driven by more than one distinct source,
        sorted by ``(component, port)`` — the order :meth:`area` and
        candidate pricing sum mux terms in, so their floats do not
        depend on the iteration order of the connection set.
        """
        components = self._components
        return sorted(
            (dst, port, fanin, components[dst].width)
            for (dst, port), fanin in self.fanin_ports().items()
            if fanin > 1
        )

    def mux_legs(self) -> int:
        """Total 2-to-1 multiplexer legs implied by multi-source ports."""
        return sum([fanin - 1 for _d, _p, fanin, _w in self.multi_source_ports()])

    def n_connections(self) -> int:
        """Number of distinct point-to-point connections."""
        return len(self._connections)

    # ------------------------------------------------------------------
    def _cell_area_terms(self, library: "ModuleLibrary") -> list[float]:
        """Per-component cell areas, in component insertion order."""
        skip = (ComponentKind.PORT, ComponentKind.MODULE)
        # Ports are free; nested module instances are priced by the
        # owner (it knows the RTLModule object) — see
        # repro.synthesis.costs.area_of.
        return [
            cell_area(library, comp.cell) * (comp.width / REFERENCE_WIDTH)
            for comp in self._components.values()
            if comp.kind not in skip
        ]

    def area(self, library: "ModuleLibrary") -> float:
        """Netlist area: cells + inferred muxes + interconnect measure.

        Summed in a fixed order: cell terms in component insertion
        order, then one mux term per :meth:`multi_source_ports` row.
        """
        cached = self._area_cache.get(id(library))
        if cached is not None and cached[0] is library:
            return cached[1]
        total = 0.0
        for term in self._cell_area_terms(library):
            total += term
        mux_area = library.mux_cell.area
        for _dst, _port, fanin, width in self.multi_source_ports():
            total += (fanin - 1) * mux_area * (width / REFERENCE_WIDTH)
        total += self.n_connections() * WIRE_AREA_PER_CONNECTION
        self._area_cache[id(library)] = (library, total)
        return total

    def copy(self, name: str | None = None) -> "DatapathNetlist":
        """An independent (editable) copy of this netlist."""
        clone = DatapathNetlist(name or self.name)
        clone._components = dict(self._components)
        clone._connections = set(self._connections)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatapathNetlist({self.name!r}, {len(self._components)} components, "
            f"{len(self._connections)} connections, {self.mux_legs()} mux legs)"
        )
