"""Stored blobs are byte-reproducible across interpreter hash seeds.

The persistent store keeps pickled modules, resynthesis results and
metrics.  String hashing, and with it the iteration order of sets and
frozensets, changes with ``PYTHONHASHSEED``, and ``id()`` changes with
every process, so nothing a module pickles may depend on either: a
netlist's connections and a cell's operations pickle in a fixed order,
and a solution's fingerprint and schedule key (which embed ``id(dfg)``
and hold seed-dependent hashes) are not pickled at all.  Blobs stored
in the earlier form still load, with those caches dropped.  Metrics
pickle as one flat tuple of values, and load from the dataclass form
they were stored in before.
"""

from __future__ import annotations

import copyreg
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dfg.ops import Operation
from repro.library import default_library
from repro.library.cells import LibraryCell
from repro.rtl import DatapathNetlist
from repro.synthesis import EvaluationContext, Solution, SynthesisConfig
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.costs import Metrics
from repro.synthesis.initial import initial_solution
from repro.synthesis.library_gen import build_complex_library
from tests.designs import make_butterfly_design, make_flat_design, sim_for

ROOT = Path(__file__).resolve().parents[2]

FAST = SynthesisConfig(max_moves=4, max_passes=1, n_clocks=1)

#: Characterizes one butterfly module and writes its pickle to stdout.
_CHARACTERIZE = """
import pickle, sys
from repro.library import default_library
from repro.synthesis import SynthesisConfig
from repro.synthesis.library_gen import build_complex_library
from tests.designs import make_butterfly_design

library = build_complex_library(
    make_butterfly_design(), default_library(), objectives=("power",),
    laxity_factors=(2.0,),
    config=SynthesisConfig(max_moves=4, max_passes=1, n_clocks=1),
    n_samples=24,
)
(module,) = library.complex_modules_for("butterfly")
sys.stdout.buffer.write(pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL))
"""


#: Prices a small design's initial solution and writes the pickle of
#: its metrics to stdout.
_PRICE = """
import pickle, sys
from tests.unit.test_blob_determinism import _priced_metrics

metrics = _priced_metrics()
sys.stdout.buffer.write(pickle.dumps(metrics, protocol=pickle.HIGHEST_PROTOCOL))
"""


#: Synthesizes a small hierarchical design into a fresh store and
#: writes the pickle of its sorted ``point`` rows to stdout.
_POINTS = """
import pickle, sqlite3, sys, tempfile
from repro.synthesis import SynthesisConfig, synthesize
from tests.designs import make_butterfly_design

with tempfile.TemporaryDirectory() as cache_dir:
    synthesize(
        make_butterfly_design(), laxity_factor=2.0, n_samples=16,
        config=SynthesisConfig(max_moves=4, max_passes=1, n_clocks=1,
                               cache_dir=cache_dir),
    )
    db = sqlite3.connect(f"{cache_dir}/synthesis_store.sqlite")
    rows = db.execute(
        "SELECT key, value FROM store WHERE ns = 'point' ORDER BY key"
    ).fetchall()
    db.close()
sys.stdout.buffer.write(pickle.dumps(rows))
"""


def _priced_metrics() -> Metrics:
    design = make_flat_design()
    sim = sim_for(design)
    env = SynthesisEnv(design, default_library(), "power")
    solution = initial_solution(env, design.top, sim, 10.0, 5.0, 500.0)
    return EvaluationContext(sim, (), "power").evaluate(solution)


def _pickle_in_subprocess(hash_seed: str, script: str = _CHARACTERIZE) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def module():
    library = build_complex_library(
        make_butterfly_design(),
        default_library(),
        objectives=("power",),
        laxity_factors=(2.0,),
        config=FAST,
        n_samples=24,
    )
    (built,) = library.complex_modules_for("butterfly")
    return built


class _EarlierFormPickler(pickle.Pickler):
    """Blobs as stored before their order was fixed: each solution with
    its fingerprint, fingerprint key and schedule key, each netlist with
    its connection set and each cell with its ops frozenset."""

    def reducer_override(self, obj):
        if type(obj) is Solution:
            obj.fingerprint_key()
            obj.schedule_key()
            dropped = ("_tasks", "_task_index", "_blocks", "_netlist")
            state = {k: v for k, v in obj.__dict__.items() if k not in dropped}
            assert state["_fingerprint"] is not None
            return copyreg.__newobj__, (Solution,), state
        if isinstance(obj, DatapathNetlist):
            state = {
                "name": obj.name,
                "_components": obj._components,
                "_connections": set(obj._connections),
            }
            return DatapathNetlist, (obj.name,), state
        if type(obj) is LibraryCell:
            return copyreg.__newobj__, (LibraryCell,), dict(obj.__dict__)
        return NotImplemented


def _earlier_form(value) -> bytes:
    buf = io.BytesIO()
    _EarlierFormPickler(buf, pickle.HIGHEST_PROTOCOL).dump(value)
    return buf.getvalue()


class TestModuleBlobs:
    def test_module_pickle_identical_across_hash_seeds(self):
        first = _pickle_in_subprocess("1")
        second = _pickle_in_subprocess("2")
        assert first
        assert first == second

    def test_earlier_blob_loads_and_prices_the_same(self, module):
        blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        current = pickle.loads(blob)
        earlier = pickle.loads(_earlier_form(module))
        library = default_library()
        for loaded in (current, earlier):
            assert loaded.area(library) == module.area(library)
            assert loaded.cap_internal("butterfly") == module.cap_internal(
                "butterfly"
            )
            assert loaded.profile("butterfly") == module.profile("butterfly")
            assert loaded.netlist.connections() == module.netlist.connections()
            internal = loaded.internal.solution
            # The writer's fingerprint and schedule key were dropped and
            # re-derive against this process's graph object.
            assert internal._fingerprint is None
            assert internal._fingerprint_key is None
            assert internal._sched_key is None
            assert internal.fingerprint()[1] == id(internal.dfg)
            assert internal.schedule_key().value[0] == id(internal.dfg)
            fresh = module.internal.solution
            assert internal.fingerprint()[2:] == fresh.fingerprint()[2:]
            assert internal.schedule().length == fresh.schedule().length
        # Loading normalizes the earlier form: re-pickled, both loads agree.
        assert pickle.dumps(earlier) == pickle.dumps(current)


class TestFixedOrderState:
    def test_cell_ops_pickle_sorted(self):
        cell = next(c for c in default_library().cells() if len(c.ops) > 1)
        state = cell.__getstate__()
        assert state["ops"] == tuple(sorted(cell.ops, key=lambda op: op.value))
        loaded = pickle.loads(pickle.dumps(cell))
        assert loaded == cell
        assert isinstance(loaded.ops, frozenset)
        assert hash(loaded) == hash(cell)

    def test_cell_with_frozenset_state_still_loads(self):
        cell = LibraryCell.__new__(LibraryCell)
        cell.__setstate__(
            {**default_library().cells()[0].__dict__,
             "ops": frozenset({Operation.SUB, Operation.ADD})}
        )
        assert cell.ops == frozenset({Operation.ADD, Operation.SUB})
        assert cell.supports(Operation.SUB)

    def test_netlist_connections_pickle_sorted(self, module):
        netlist = module.netlist
        state = netlist.__getstate__()
        assert state["_connections"] == netlist.connections()
        loaded = pickle.loads(pickle.dumps(netlist))
        assert loaded._connections == netlist._connections
        assert isinstance(loaded._connections, set)

    def test_solution_pickle_omits_identity_caches(self, module):
        solution = module.internal.solution
        solution.fingerprint_key()
        solution.schedule_key()
        state = solution.__getstate__()
        for name in ("_fingerprint", "_fingerprint_key", "_sched_key"):
            assert name not in state


class TestPointBlobs:
    def test_point_blobs_identical_across_hash_seeds(self):
        first = pickle.loads(_pickle_in_subprocess("1", _POINTS))
        second = pickle.loads(_pickle_in_subprocess("2", _POINTS))
        assert first
        assert first == second

    def test_loaded_module_pickles_to_the_bytes_it_came_from(self, module):
        """Netlists, graphs, solutions, cells and modules restore to
        objects that pickle as they were pickled, so an outcome holding
        a module loaded from the store stores the bytes it would hold
        had the module been computed."""
        blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(blob)
        assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == blob


class _DataclassFormPickler(pickle.Pickler):
    """Metrics as stored before they pickled as a flat tuple: the
    dataclass's own state dict, field names included."""

    def reducer_override(self, obj):
        if type(obj) is Metrics:
            return copyreg.__newobj__, (Metrics,), dict(obj.__dict__)
        return NotImplemented


class TestMetricsBlobs:
    def test_metrics_pickle_identical_across_hash_seeds(self):
        first = _pickle_in_subprocess("1", _PRICE)
        second = _pickle_in_subprocess("2", _PRICE)
        assert first
        assert first == second
        assert pickle.loads(first) == _priced_metrics()

    def test_dataclass_form_loads_equal(self):
        metrics = _priced_metrics()
        buf = io.BytesIO()
        _DataclassFormPickler(buf, pickle.HIGHEST_PROTOCOL).dump(metrics)
        earlier = buf.getvalue()
        blob = pickle.dumps(metrics, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(earlier) / 2
        loaded = pickle.loads(earlier)
        assert loaded == metrics
        assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == blob
