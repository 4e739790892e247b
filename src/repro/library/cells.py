"""Simple RTL library cells (functional units, registers, multiplexers).

Each cell carries the three characterization quantities the synthesis
algorithm consumes:

* ``area`` — layout area in normalized units (Table 1's scale),
* ``delay_ns`` — combinational/propagation delay at the 5 V reference,
* ``cap`` — effective switched capacitance per activation; the energy of
  one activation is ``cap * (IDLE_FRACTION + activity) * Vdd²`` where
  *activity* is the average fraction of toggling input bits delivered by
  the trace-driven estimator (:mod:`repro.power.activity`).

Chained cells
-------------
The paper's library contains ``chained_add2``/``chained_add3``: chains
of adders that "complete execution almost as fast as an individual
adder".  A chained cell executes ``chain_length`` dependent operations
of the same type in a single pass; the scheduler treats a chain of DFG
operations mapped to it as one unit.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from ..dfg.ops import Operation
from .voltage import delay_scale, energy_scale

__all__ = [
    "CellKind",
    "LibraryCell",
    "IDLE_FRACTION",
    "STANDARD_CELLS",
    "standard_cells",
    "REGISTER_CELL",
    "MUX_CELL",
]

#: Fraction of full-activity energy a cell burns per activation even with
#: zero input toggling (clock load, glitching floor).
IDLE_FRACTION = 0.15


class CellKind(enum.Enum):
    """Structural role of a cell in the datapath."""

    FUNCTIONAL = "fu"
    REGISTER = "reg"
    MUX = "mux"


@dataclass(frozen=True)
class LibraryCell:
    """One characterized library cell.

    ``ops`` is the set of DFG operations the cell can execute; a
    multi-function ALU lists several.  ``chain_length`` > 1 marks a
    chained cell executing that many dependent same-type operations in
    one activation.
    """

    name: str
    kind: CellKind
    ops: frozenset[Operation]
    area: float
    delay_ns: float
    cap: float
    chain_length: int = 1
    #: Fully pipelined cells accept a new operation every cycle even
    #: though results take ``delay_cycles`` to emerge (initiation
    #: interval of one).  The paper's engine "can support chained,
    #: multi-cycled, and pipelined functional units" (Section 1).
    pipelined: bool = False

    def __getstate__(self) -> dict:
        """Pickled state, with ``ops`` as a tuple in a fixed order.

        A frozenset pickles in iteration order, which follows the
        operations' hashes and so ``PYTHONHASHSEED``; a sorted tuple
        keeps stored blobs byte-identical across processes.
        """
        state = self.__dict__.copy()
        state["ops"] = tuple(sorted(self.ops, key=lambda op: op.value))
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled cell (older blobs carry ``ops`` as a
        frozenset), its names interned as the default restore does."""
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self.__dict__["ops"] = frozenset(state["ops"])

    def supports(self, op: Operation) -> bool:
        """True if the cell can execute *op*."""
        return op in self.ops

    def initiation_interval(self, clk_ns: float, vdd: float) -> int:
        """Cycles between successive operation issues on this cell."""
        if self.pipelined:
            return 1
        return self.delay_cycles(clk_ns, vdd)

    def delay_ns_at(self, vdd: float) -> float:
        """Propagation delay at supply *vdd* (first-order CMOS scaling)."""
        return self.delay_ns * delay_scale(vdd)

    def delay_cycles(self, clk_ns: float, vdd: float) -> int:
        """Execution time in whole clock cycles at ``(clk_ns, vdd)``.

        Every activation takes at least one cycle; multicycle units take
        the ceiling of their scaled delay.
        """
        if clk_ns <= 0:
            raise ValueError("clock period must be positive")
        return max(1, math.ceil(self.delay_ns_at(vdd) / clk_ns - 1e-9))

    def energy_per_op(self, vdd: float, activity: float) -> float:
        """Energy of one activation, in capacitance·V² units."""
        activity = min(max(activity, 0.0), 1.0)
        return self.cap * (IDLE_FRACTION + activity) * energy_scale(vdd) * 25.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _fu(name: str, ops: set[Operation], area: float, delay_ns: float, cap: float,
        chain: int = 1) -> LibraryCell:
    return LibraryCell(
        name=name,
        kind=CellKind.FUNCTIONAL,
        ops=frozenset(ops),
        area=area,
        delay_ns=delay_ns,
        cap=cap,
        chain_length=chain,
    )


_ADD_LIKE = {Operation.ADD}
_SUB_LIKE = {Operation.SUB}
_ALU_OPS = {Operation.ADD, Operation.SUB, Operation.NEG, Operation.PASS,
            Operation.MIN, Operation.MAX}
_CMP_OPS = {Operation.LT, Operation.GT}
_SHIFT_OPS = {Operation.LSHIFT, Operation.RSHIFT}


#: The default simple-cell library.  Areas and cycle counts at a 10 ns
#: clock / 5 V reproduce Table 1 of the paper: add1 is the fast large
#: adder (1 cycle, area 30), add2 the small slow one (2 cycles, area 20),
#: chained_add2/3 complete whole adder chains in one cycle, mult1 is the
#: fast multiplier (3 cycles, area 150) and mult2 the slow, markedly
#: lower-power one (5 cycles, area 100).
STANDARD_CELLS: tuple[LibraryCell, ...] = (
    _fu("add1", _ADD_LIKE, area=30.0, delay_ns=9.0, cap=0.80),
    _fu("add2", _ADD_LIKE, area=20.0, delay_ns=18.0, cap=0.55),
    _fu("chained_add2", _ADD_LIKE, area=60.0, delay_ns=9.6, cap=1.50, chain=2),
    _fu("chained_add3", _ADD_LIKE, area=90.0, delay_ns=9.9, cap=2.10, chain=3),
    _fu("sub1", _SUB_LIKE, area=30.0, delay_ns=9.0, cap=0.85),
    _fu("sub2", _SUB_LIKE, area=20.0, delay_ns=18.0, cap=0.60),
    _fu("alu1", _ALU_OPS, area=38.0, delay_ns=9.8, cap=0.95),
    _fu("mult1", {Operation.MULT}, area=150.0, delay_ns=28.0, cap=4.00),
    _fu("mult2", {Operation.MULT}, area=100.0, delay_ns=48.0, cap=2.20),
    # Fully pipelined multiplier: one issue per cycle, three-cycle
    # latency; the pipeline registers cost area and capacitance.
    LibraryCell(
        name="pipe_mult1",
        kind=CellKind.FUNCTIONAL,
        ops=frozenset({Operation.MULT}),
        area=195.0,
        delay_ns=29.0,
        cap=4.60,
        pipelined=True,
    ),
    _fu("cmp1", _CMP_OPS, area=15.0, delay_ns=6.0, cap=0.30),
    _fu("shift1", _SHIFT_OPS, area=14.0, delay_ns=5.0, cap=0.25),
    _fu("neg1", {Operation.NEG, Operation.PASS}, area=12.0, delay_ns=4.5, cap=0.20),
)

#: Storage cell used for every register instance (Table 1's ``reg1``).
REGISTER_CELL = LibraryCell(
    name="reg1",
    kind=CellKind.REGISTER,
    ops=frozenset(),
    area=10.0,
    delay_ns=1.2,
    cap=0.25,
)

#: One 2-to-1 multiplexer leg; an n-input mux costs ``n - 1`` of these.
MUX_CELL = LibraryCell(
    name="mux2",
    kind=CellKind.MUX,
    ops=frozenset(),
    area=7.0,
    delay_ns=0.8,
    cap=0.10,
)


def standard_cells() -> list[LibraryCell]:
    """A fresh list of the default functional-unit cells."""
    return list(STANDARD_CELLS)
