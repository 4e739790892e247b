"""Unit tests for canonical content keys (repro.dfg.canonical).

The tiered synthesis store addresses entries by these fingerprints, so
they must be invariant under everything that does not change synthesis
results (node names, construction order) and sensitive to everything
that does (operations, wiring, port order, nested behavior bodies).
"""

import copyreg
import dataclasses
import io
import pickle

import numpy as np

from repro.dfg import (
    DFG,
    Design,
    GraphBuilder,
    Operation,
    canonical_fingerprint,
    clusters_isomorphic,
    config_signature,
    design_fingerprint,
    graph_signature,
    library_signature,
    stream_digest,
)
from repro.dfg.canonical import EXECUTION_ONLY
from repro.library import default_library
from repro.synthesis import SynthesisConfig

from tests.designs import make_butterfly_design


def _mac(names=("m", "a"), order="ma"):
    """x*y + z with configurable node names and construction order."""
    b = GraphBuilder("mac")
    x, y, z = b.inputs("x", "y", "z")
    m = b.mult(x, y, name=names[0])
    b.output("o", b.add(m, z, name=names[1]))
    return b.build()


class TestCanonicalFingerprint:
    def test_name_invariance(self):
        assert canonical_fingerprint(_mac(("m", "a"))) == canonical_fingerprint(
            _mac(("prod", "sum"))
        )

    def test_construction_order_invariance(self):
        b1 = GraphBuilder("t")
        x, y, z = b1.inputs("x", "y", "z")
        m1 = b1.mult(x, y, name="first")
        m2 = b1.mult(y, z, name="second")
        b1.output("o", b1.add(m1, m2, name="a"))

        b2 = GraphBuilder("t")
        x, y, z = b2.inputs("x", "y", "z")
        m2 = b2.mult(y, z, name="zz_late")  # built first this time
        m1 = b2.mult(x, y, name="aa_early")
        b2.output("o", b2.add(m1, m2, name="a"))
        assert canonical_fingerprint(b1.build()) == canonical_fingerprint(
            b2.build()
        )

    def test_distinct_operations_differ(self):
        b = GraphBuilder("t")
        x, y, z = b.inputs("x", "y", "z")
        m = b.mult(x, y, name="m")
        b.output("o", b.sub(m, z, name="s"))  # sub instead of add
        assert canonical_fingerprint(_mac()) != canonical_fingerprint(b.build())

    def test_port_order_matters_like_isomorphism(self):
        """Fingerprint equality must track clusters_isomorphic exactly."""

        def body(swap):
            b = GraphBuilder("c")
            x, y = b.inputs("in0", "in1")
            if swap:
                b.output("out0", b.sub(y, x))
            else:
                b.output("out0", b.sub(x, y))
            return b.build()

        same = clusters_isomorphic(body(False), body(False))
        diff = clusters_isomorphic(body(False), body(True))
        assert same and not diff
        assert canonical_fingerprint(body(False)) == canonical_fingerprint(
            body(False)
        )
        assert canonical_fingerprint(body(False)) != canonical_fingerprint(
            body(True)
        )

    def test_memoized_per_graph(self):
        dfg = _mac()
        assert canonical_fingerprint(dfg) == canonical_fingerprint(dfg)


class TestDesignFingerprint:
    def test_recurses_into_behaviors(self):
        """Changing a nested body changes the parent's fingerprint."""
        base = make_butterfly_design()
        changed = make_butterfly_design()
        # Same top graph, but the butterfly body's subtract becomes an add.
        b = GraphBuilder("butterfly")
        a, c = b.inputs("a", "b")
        b.output("o0", b.add(a, c, name="badd"))
        b.output("o1", b.add(a, c, name="bsub"))
        changed2 = Design("bf_design")
        changed2.add_dfg(b.build())
        changed2.add_dfg(changed.top, top=True)
        assert design_fingerprint(base, base.top) == design_fingerprint(
            make_butterfly_design(), make_butterfly_design().top
        )
        assert design_fingerprint(base, base.top) != design_fingerprint(
            changed2, changed2.top
        )


class TestGraphSignature:
    def test_identity_exact(self):
        """Node renames change the signature (schedules key by node id)."""
        assert graph_signature(_mac(("m", "a"))) != graph_signature(
            _mac(("prod", "sum"))
        )
        assert graph_signature(_mac()) == graph_signature(_mac())

    def test_memo_misses_after_connect(self):
        def adder(connect_y: bool) -> DFG:
            dfg = DFG("g")
            dfg.add_input("x")
            dfg.add_input("y")
            dfg.add_op("a", Operation.ADD)
            dfg.add_output("o")
            dfg.connect("x", 0, "a", 0)
            dfg.connect("a", 0, "o", 0)
            if connect_y:
                dfg.connect("y", 0, "a", 1)
            return dfg

        dfg = adder(connect_y=False)
        partial = graph_signature(dfg)
        fingerprint = canonical_fingerprint(dfg)
        dfg.connect("y", 0, "a", 1)
        assert graph_signature(dfg) != partial
        assert graph_signature(dfg) == graph_signature(adder(connect_y=True))
        assert canonical_fingerprint(dfg) != fingerprint

    def test_graph_pickled_without_edge_counter(self):
        """Store files hold DFGs pickled before the edge counter: they
        unpickle with their edges counted and sign as before."""
        dfg = _mac()
        signature = graph_signature(dfg)
        fingerprint = canonical_fingerprint(_mac())

        class OlderPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if obj is not dfg:
                    return NotImplemented
                state = {k: v for k, v in vars(obj).items() if k != "_n_edges"}
                # Earlier releases pickled the fingerprint memo as well.
                state["_canonical_memo"] = {"exact": (len(dfg), 5, signature)}
                return copyreg.__newobj__, (DFG,), state

        buf = io.BytesIO()
        OlderPickler(buf, pickle.HIGHEST_PROTOCOL).dump(dfg)
        restored = pickle.loads(buf.getvalue())
        assert "_canonical_memo" not in vars(restored)
        assert restored.n_edges == dfg.n_edges == 5
        assert graph_signature(restored) == signature
        assert canonical_fingerprint(restored) == fingerprint

    def test_pickle_bytes_do_not_depend_on_the_memo(self):
        """The fingerprint memo is held beside a graph, never in it."""
        dfg = _mac()
        before = pickle.dumps(dfg, protocol=pickle.HIGHEST_PROTOCOL)
        graph_signature(dfg)
        canonical_fingerprint(dfg)
        assert pickle.dumps(dfg, protocol=pickle.HIGHEST_PROTOCOL) == before


class TestStreamDigest:
    def test_value_and_dtype_sensitivity(self):
        a = [np.arange(8, dtype=np.int64)]
        b = [np.arange(8, dtype=np.int64)]
        c = [np.arange(8, dtype=np.int32)]
        d = [np.arange(1, 9, dtype=np.int64)]
        assert stream_digest(a) == stream_digest(b)
        assert stream_digest(a) != stream_digest(c)
        assert stream_digest(a) != stream_digest(d)


class TestContextSignatures:
    def test_library_signature_is_stable(self):
        assert library_signature(default_library()) == library_signature(
            default_library()
        )

    def test_library_signature_ignores_lookups(self):
        """Asking the library about a behavior changes nothing it
        signs: the signature taken after lookups of new behaviors,
        including its own ``complex_modules_for`` calls, equals the one
        taken before them."""
        from tests.unit.test_library import make_module

        library = default_library()
        library.add_complex_module(make_module("m1", "dot_chain"))
        library.equivalences.declare_equivalent("dot_chain", "dot_tree")
        first = library_signature(library)
        assert library_signature(library) == first
        assert library.equivalences.equivalence_class("fir") == {"fir"}
        assert library.complex_modules_for("iir") == []
        library.add_complex_module(make_module("m2", "mac"))
        second = library_signature(library)
        assert library_signature(library) == second != first
        assert library.equivalences.known_behaviors() == {
            "dot_chain", "dot_tree"
        }

    def test_config_signature_ignores_execution_knobs(self):
        base = SynthesisConfig()
        execy = SynthesisConfig(n_workers=8, trace=True, cache_dir="/tmp/x",
                                store_shards=4, validate_incremental=True)
        functional = SynthesisConfig(max_passes=1)
        assert config_signature(base) == config_signature(execy)
        assert config_signature(base) != config_signature(functional)

    def test_one_declaration_splits_the_fields(self):
        """The ``EXECUTION_ONLY`` field metadata alone decides which
        fields key the store: changing a marked field leaves the
        signature alone, changing any other field moves it, and the
        trace's recorded config holds exactly the unmarked fields.

        Reads the metadata, so a new field is covered without editing
        this test.
        """
        from repro.synthesis.api import _traced_config

        def changed_value(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return value * 2 + 1
            return {"seed": 1} if value is None else value + "x"

        base = SynthesisConfig()
        marked = set()
        for f in dataclasses.fields(SynthesisConfig):
            changed = dataclasses.replace(
                base, **{f.name: changed_value(getattr(base, f.name))}
            )
            if f.metadata.get(EXECUTION_ONLY):
                marked.add(f.name)
                assert config_signature(changed) == config_signature(base), \
                    f.name
            else:
                assert config_signature(changed) != config_signature(base), \
                    f.name
        assert marked == {
            "n_workers", "validate_incremental", "trace", "trace_timings",
            "trace_meta", "cache_dir", "store_shards",
        }
        assert set(_traced_config(base)) == {
            f.name for f in dataclasses.fields(SynthesisConfig)
        } - marked
