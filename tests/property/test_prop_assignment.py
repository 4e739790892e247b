"""The in-tree assignment solver returns scipy's pairs, ties included.

:func:`repro.rtl.embedding.linear_sum_assignment` ports the solver that
``scipy.optimize.linear_sum_assignment`` runs.  Embedding scores are
integers plus 0.01, so optimal assignments tie all the time, and which
optimum the solver picks decides the merged netlist: the port must pick
scipy's.  scipy stays a test dependency for exactly this oracle.

``tests/data/embedding_matrices.json`` holds every distinct cost matrix
the embeddings of the five hier-power circuits solve (lat, dct, iir,
hier_paulin and test1: library build plus synthesis, quick config,
LF 2.2, power, 48 speech samples, seed 0).  Regenerate it with::

    PYTHONPATH=src python -m tests.property.test_prop_assignment
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl import embedding

optimize = pytest.importorskip("scipy.optimize")

MATRICES = Path(__file__).parents[1] / "data" / "embedding_matrices.json"
HIER_DESIGNS = ("lat", "dct", "iir", "hier_paulin", "test1")


def _scipy_pairs(cost):
    rows, cols = optimize.linear_sum_assignment(np.array(cost, dtype=float))
    return [int(r) for r in rows], [int(c) for c in cols]


@st.composite
def embedding_costs(draw):
    """Wide, square and tall matrices up to 8×8 of negated ``k + 0.01``
    scores, with few distinct values so optimal assignments tie."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    top = draw(st.sampled_from((0, 1, 2, 5)))
    return [
        [-(draw(st.integers(0, top)) + 0.01) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


@given(embedding_costs())
@settings(max_examples=400, deadline=None)
def test_port_matches_scipy(cost):
    assert embedding.linear_sum_assignment(cost) == _scipy_pairs(cost)


def test_port_matches_scipy_on_every_hier_power_matrix():
    matrices = json.loads(MATRICES.read_text())
    assert len(matrices) > 40
    assert any(len(m) > len(m[0]) for m in matrices)  # tall ones too
    for cost in matrices:
        assert embedding.linear_sum_assignment(cost) == _scipy_pairs(cost), cost


def test_empty_and_degenerate_shapes():
    assert embedding.linear_sum_assignment([]) == ([], [])
    assert embedding.linear_sum_assignment([[]]) == ([], [])
    assert embedding.linear_sum_assignment([[-1.01]]) == ([0], [0])


def capture_matrices() -> list:
    """Run the five circuits' hierarchical flow and return every
    distinct cost matrix its embeddings solve, sorted."""
    from repro.bench_suite import get_benchmark
    from repro.library import default_library
    from repro.power import speech_traces
    from repro.reporting import quick_config
    from repro.synthesis import api, library_gen

    seen: set[str] = set()
    solve = embedding.linear_sum_assignment

    def spy(cost):
        seen.add(json.dumps(cost))
        return solve(cost)

    embedding.linear_sum_assignment = spy
    try:
        for name in HIER_DESIGNS:
            design = get_benchmark(name)
            config = quick_config()
            library = library_gen.build_complex_library(
                design, default_library(), config=config
            )
            api.synthesize(
                design, library, laxity_factor=2.2, objective="power",
                traces=speech_traces(design.top, n=48, seed=0),
                config=config, n_samples=48,
            )
    finally:
        embedding.linear_sum_assignment = solve
    return sorted(json.loads(text) for text in seen)


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(m) for m in capture_matrices())
    MATRICES.write_text(f"[\n{rows}\n]\n")
