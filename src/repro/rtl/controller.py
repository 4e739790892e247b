"""Finite-state-machine controller model.

H-SYN's output is "a datapath netlist, and a finite-state machine
description of the controller" (Section 5).  The controller steps
through one state per clock cycle of the schedule; in each state it
asserts register load-enables, functional-unit start/operation selects
and multiplexer selects.  The synthesis layer builds the state table
from a scheduled, bound solution (:mod:`repro.synthesis.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MuxSelect", "RegisterLoad", "UnitStart", "ControllerState", "FSMController"]


@dataclass(frozen=True)
class MuxSelect:
    """Drive the mux at (component, input port) to pass *source*."""

    dst: str
    dst_port: int
    src: str
    src_port: int


@dataclass(frozen=True)
class RegisterLoad:
    """Assert the load-enable of *register*, capturing *src*'s output."""

    register: str
    src: str
    src_port: int


@dataclass(frozen=True)
class UnitStart:
    """Start an operation on a functional unit / complex module."""

    unit: str
    operation: str


@dataclass
class ControllerState:
    """Control signals asserted during one cycle."""

    cycle: int
    loads: list[RegisterLoad] = field(default_factory=list)
    starts: list[UnitStart] = field(default_factory=list)
    selects: list[MuxSelect] = field(default_factory=list)

    def is_idle(self) -> bool:
        """True when the state asserts no control signal."""
        return not (self.loads or self.starts or self.selects)


@dataclass
class FSMController:
    """A linear (per-sample) controller: states 0..n-1 then wrap."""

    name: str
    states: list[ControllerState]

    @property
    def n_states(self) -> int:
        """Number of states (one per schedule cycle)."""
        return len(self.states)

    def state(self, cycle: int) -> ControllerState:
        """The state active in the given cycle."""
        return self.states[cycle]

    def n_control_signals(self) -> int:
        """Total distinct control assertions (a controller-size metric)."""
        signals: set = set()
        for state in self.states:
            signals.update(state.loads)
            signals.update(state.starts)
            signals.update(state.selects)
        return len(signals)
