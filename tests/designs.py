"""Shared design constructors for the test suite.

Every design that more than one test module needs lives here exactly
once; ``tests/conftest.py`` wraps them in fixtures and individual test
files import the constructors directly when they need a fresh
(non-fixture) instance.  Keeping them importable as plain functions —
not only as fixtures — is what lets hypothesis strategies, golden tests
and the fuzzer reuse them.
"""

from __future__ import annotations

from repro.dfg import DFG, Design, GraphBuilder
from repro.power import SimTrace, simulate_subgraph, speech_traces

__all__ = [
    "chain_dfg",
    "diamond_dfg",
    "make_butterfly_design",
    "make_flat_design",
    "make_flat_dfg",
    "make_mixed_module_design",
    "sim_for",
]


def make_butterfly_design() -> Design:
    """A two-level design: two butterflies feeding a multiply/add tree."""
    b = GraphBuilder("butterfly")
    a, c = b.inputs("a", "b")
    b.output("o0", b.add(a, c, name="badd"))
    b.output("o1", b.sub(a, c, name="bsub"))
    butterfly = b.build()

    t = GraphBuilder("bf_top")
    x, y, z, w = t.inputs("x", "y", "z", "w")
    h1 = t.hier("butterfly", x, y, n_outputs=2, name="h1")
    h2 = t.hier("butterfly", z, w, n_outputs=2, name="h2")
    m1 = t.mult(h1[0], h2[0], name="m1")
    m2 = t.mult(h1[1], h2[1], name="m2")
    t.output("out", t.add(m1, m2, name="s1"))

    design = Design("bf_design")
    design.add_dfg(butterfly)
    design.add_dfg(t.build(), top=True)
    return design


def make_mixed_module_design() -> Design:
    """Two butterflies and a multiply-accumulate under one top.

    The two butterfly instances can share one module, while a butterfly
    and the multiply-accumulate can only be merged by RTL embedding, so
    module discovery on this design reaches every module move kind.
    """
    b = GraphBuilder("butterfly")
    a, c = b.inputs("a", "b")
    b.output("o0", b.add(a, c, name="badd"))
    b.output("o1", b.sub(a, c, name="bsub"))
    butterfly = b.build()

    m = GraphBuilder("mac")
    a, c, d = m.inputs("a", "b", "c")
    m.output("o", m.add(m.mult(a, c, name="mm"), d, name="ma"))
    mac = m.build()

    t = GraphBuilder("mixed_top")
    x, y, z, w = t.inputs("x", "y", "z", "w")
    h1 = t.hier("butterfly", x, y, n_outputs=2, name="h1")
    h2 = t.hier("butterfly", z, w, n_outputs=2, name="h2")
    h3 = t.hier("mac", h1[0], h2[0], h1[1], name="h3")
    t.output("out", t.add(h3, h2[1], name="s1"))

    design = Design("mixed_module_design")
    design.add_dfg(butterfly)
    design.add_dfg(mac)
    design.add_dfg(t.build(), top=True)
    return design


def make_flat_dfg() -> DFG:
    """A small flat DFG: (x*y + z) and (x - z)."""
    b = GraphBuilder("small_flat")
    x, y, z = b.inputs("x", "y", "z")
    m = b.mult(x, y, name="m1")
    s = b.add(m, z, name="a1")
    d = b.sub(x, z, name="s1")
    b.output("o0", s)
    b.output("o1", d)
    return b.build()


def make_flat_design() -> Design:
    design = Design("small_flat_design")
    design.add_dfg(make_flat_dfg(), top=True)
    return design


def diamond_dfg() -> DFG:
    """Two parallel multiplies joined by an add."""
    b = GraphBuilder("t")
    x, y, z = b.inputs("x", "y", "z")
    m1 = b.mult(x, y, name="m1")
    m2 = b.mult(y, z, name="m2")
    b.output("o", b.add(m1, m2, name="a1"))
    return b.build()


def chain_dfg() -> DFG:
    """A multiply feeding an add (the minimal serial chain)."""
    b = GraphBuilder("t")
    x, y = b.inputs("x", "y")
    m = b.mult(x, y, name="m")
    a = b.add(m, y, name="a")
    b.output("o", a)
    return b.build()


def sim_for(design: Design, n: int = 32, seed: int = 7) -> SimTrace:
    """Simulated speech-trace activity for *design*'s top DFG."""
    top = design.top
    traces = speech_traces(top, n=n, seed=seed)
    return simulate_subgraph(design, top, [traces[name] for name in top.inputs])
