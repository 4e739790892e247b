"""Tiered, content-addressed store for memoized synthesis results.

One :class:`SynthesisStore` replaces the engine's previously separate
memo dictionaries (the characterization module cache, the move-B
resynthesis memo, and schedule memoization) with three tiers:

* **point tier** — per-namespace :class:`~repro.synthesis.caching.
  LRUCache` instances holding *live* objects, keyed exactly like the
  legacy memos and cleared between operating points
  (:meth:`SynthesisStore.reset_point`).  This tier preserves the legacy
  caches' semantics bit for bit.
* **run tier** — one LRU of pickled blobs addressed by ``(namespace,
  content digest)``.  Content digests are built from canonical content
  keys (:mod:`repro.dfg.canonical`), never from counter-generated
  names, so the tier survives point resets and answers across operating
  points.  Loads unpickle a fresh copy, which is what keeps cached
  values immune to later in-place mutation (e.g. ``ensure_behavior``
  adding behaviors to a module).
* **persistent tier** — an optional SQLite database (``--cache-dir``)
  with the same addressing, shared across runs and across worker
  processes.  Writes are ``INSERT OR IGNORE``: content-addressed
  entries are immutable, so concurrent writers at ``n_workers > 1``
  can only race to store the same bytes.  Inside an operating point
  (:meth:`SynthesisStore.buffered`) writes collect in a per-store
  batch that reaches the database with one ``executemany`` and one
  commit per shard when the point ends, when ``_BATCH_ROWS`` rows are
  pending, when the store closes and before the maintenance calls
  read or delete rows; writes made outside a point commit at once.
  An entry lost with its unfinished point is only recomputed later.
  For multi-tenant keyspaces
  (the job server's shared cache) the tier can be **sharded** across
  several database files by digest prefix, spreading writer contention
  and letting eviction run shard by shard; see :meth:`SynthesisStore.
  detect_shards` for how readers discover an existing layout.

The lookup protocol is two-step to mirror the legacy control flow
exactly: :meth:`get` probes only the point tier (the legacy fast path,
requiring no content key), and :meth:`fetch` — called only after a
point miss — builds on the caller-supplied content key to probe the run
and persistent tiers, the pending batch before SQL.  :meth:`contains`
asks which of several contents those tiers hold without loading any.
A content key is a tuple, hashed with :func:`digest_content` on every
call, or that digest as a ``str``.  The namespaces:

* ``point`` — the outcome of one (Vdd, clock) operating point of an
  untraced sweep, probed for every point of the sweep at once before
  any point does work (:func:`repro.synthesis.api._sweep_points`), so
  a warm rerun skips the whole KL search;
* ``module`` and ``resynth`` — characterized modules and move-B
  resynthesis results;
* ``schedule`` — list schedules, addressed by a ``str`` composed from
  per-task-block text (:func:`repro.synthesis.costs.schedule_digest`),
  the one hot namespace;
* ``metrics`` — the corner sweep's per-corner metrics
  (:mod:`repro.reporting.corners`);
* ``service`` — the job server's finished jobs.

:data:`MISSING` distinguishes "absent" from a stored ``None`` (the
resynthesis memo stores ``None`` for infeasible budgets, the point
namespace for skipped points).  Rows of a namespace no caller reads any
more stay inert: nothing addresses them, and the maintenance calls
count and remove them like any other row.  So do the per-candidate
``metrics`` rows of stores written before point outcomes replaced them:
their keys hash a content tuple nothing builds any more.

Per-tier hit/miss/eviction counters are written into the bound
:class:`~repro.telemetry.Telemetry` (``store_hits``/``store_misses``/
``store_evictions``, keyed ``"{tier}.{namespace}"``), and the persistent
tier's rows inserted and commits made into ``store_writes``; all of
them surface in ``--stats`` and trace reports.

A damaged store never breaks synthesis.  A blob that does not unpickle
(garbage bytes, a class that no longer exists) is a miss counted under
``corrupt.{namespace}``: it is dropped from the run and persistent
tiers, so the recomputed value takes its place.  A database that does
not open leaves the store on its memory tiers, counted as one
``fallback.persistent`` miss.  A write that fails for another reason
than a transient lock (retried with a back-off) is dropped and counted
as a ``failed.persistent`` miss.  Each of the three warns once per
store.
"""

from __future__ import annotations

import hashlib
import pickle
import re
import sqlite3
import threading
import time
import warnings
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..dfg.canonical import (
    config_signature,
    design_fingerprint,
    library_signature,
    stream_digest,
)
from .caching import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfg.hierarchy import Design
    from ..library.library import ModuleLibrary
    from ..rtl.module import RTLModule
    from .context import SynthesisConfig
    from .solution import Solution

__all__ = [
    "MISSING",
    "STORE_SCHEMA_VERSION",
    "SynthesisStore",
    "context_signature",
    "module_content_signature",
    "sim_level_digest",
    "solution_pricing_signature",
    "solution_signature",
]

#: Bumped whenever the serialized value format or the content-key
#: construction changes incompatibly, and whenever the search changes
#: what it returns for the same inputs: ``point`` entries hold whole
#: search outcomes (``resynth`` entries nested ones), and no key names
#: the code that produced them.  A persistent database recorded under
#: a different version is dropped on open.
STORE_SCHEMA_VERSION = 2

#: Sentinel distinguishing "not stored" from a stored ``None``.
MISSING = object()

#: Database filename inside ``--cache-dir`` (single-shard layout).
_DB_NAME = "synthesis_store.sqlite"

#: Shard filename pattern for ``shards > 1`` layouts.
_SHARD_NAME = "synthesis_store.shard{index:02d}.sqlite"
_SHARD_RE = re.compile(r"synthesis_store\.shard(\d{2})\.sqlite$")

#: Retries for transient ``database is locked`` write failures; WAL
#: allows concurrent readers but serializes writers, and a busy server
#: fleet can exceed even a generous busy timeout under checkpointing.
_WRITE_RETRIES = 5
_WRITE_RETRY_SLEEP_S = 0.02

#: Pending rows that trigger a write inside an operating point.  One
#: commit costs about ten single-row inserts, so a point's batch is
#: written in few commits, and the batch holds only references to blobs
#: the run tier keeps anyway.
_BATCH_ROWS = 1024

#: Point-tier bound of the module and resynthesis memos (entries), and
#: of any namespace without its own size.
MODULE_CACHE_SIZE = 256
#: Point-tier bound of the schedule memo (entries); equal to the cost
#: cache's bound, since both hold one entry per priced candidate.
SCHEDULE_CACHE_SIZE = 4096
#: Run-tier bound (entries; each holds one pickled module, resynthesis
#: result or schedule, shared across the operating points of a run).
RUN_CACHE_SIZE = 4096


def digest_content(content: tuple) -> str:
    """SHA-256 hex digest of a content-key tuple.

    Content keys are tuples of str/int/float/bool/None (and nested
    tuples thereof), whose ``repr`` is deterministic across processes
    and Python sessions, so the digest is a stable cross-run address.
    """
    return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()


def context_signature(library: "ModuleLibrary", config: "SynthesisConfig") -> str:
    """Invalidation signature shared by every content key of one env.

    Combines the store schema version with the library and
    configuration signatures: a cached sub-result is only reusable when
    the cells/modules pricing it and the search knobs shaping it are
    unchanged.
    """
    return digest_content(
        (
            "ctx",
            STORE_SCHEMA_VERSION,
            library_signature(library),
            config_signature(config),
        )
    )


def solution_signature(solution: "Solution", design: "Design") -> tuple:
    """Name-free structural identity of a solution.

    Unlike :meth:`Solution.fingerprint
    <repro.synthesis.solution.Solution.fingerprint>` (which embeds
    ``id(dfg)`` and module *names*), this signature identifies module
    instances by their recursive content
    (:func:`module_content_signature`) and the DFG by its
    design-resolved fingerprint, so two structurally identical solutions
    built under different generated-name sequences compare equal.
    """
    return (
        design_fingerprint(design, solution.dfg),
        solution.clk_ns,
        solution.vdd,
        solution.sampling_ns,
        tuple(
            (
                inst_id,
                module_content_signature(inst.module, design)
                if inst.module is not None
                else ("cell", inst.cell.name),
                tuple(solution.executions[inst_id]),
            )
            for inst_id, inst in solution.instances.items()
        ),
        tuple(
            (reg_id, tuple(signals))
            for reg_id, signals in solution.reg_signals.items()
        ),
    )


def module_content_signature(module: "RTLModule", design: "Design") -> tuple:
    """Content identity of an RTL module, independent of generated names.

    Synthesized modules (those carrying a
    :class:`~repro.synthesis.modulegen.ModuleInternal`) are identified
    by their internal solution's :func:`solution_signature`; library
    modules — whose netlists are externally supplied and whose names
    are user-chosen identities covered by the library signature — by
    name.  Memoized per module object: internal solutions are frozen
    after characterization (moves clone before mutating), and the
    signature deliberately excludes ``_impls`` so later
    ``ensure_behavior`` aliasing cannot stale it.  The memo is a weakly
    keyed table, not an attribute of the module, so a module pickles
    to the same bytes whether or not its signature was asked first.
    """
    cached = _CONTENT_SIGS.get(module)
    if cached is not None:
        return cached
    internal = getattr(module, "internal", None)
    solution = getattr(internal, "solution", None)
    if solution is not None:
        sig = ("syn", solution_signature(solution, design))
    else:
        sig = ("lib", module.name)
    _CONTENT_SIGS[module] = sig
    return sig


#: RTL module → its :func:`module_content_signature`.  Weakly keyed, so
#: the memo never keeps a module alive, and never pickled with one.
_CONTENT_SIGS: "weakref.WeakKeyDictionary[RTLModule, tuple]" = (
    weakref.WeakKeyDictionary()
)


def module_pricing_signature(module: "RTLModule", design: "Design") -> tuple:
    """Identity of a module as the *evaluator* prices it.

    :func:`module_content_signature` pins structure but deliberately
    ignores the characterized timing/energy numbers — yet those numbers
    are exactly what pricing reads, and a structurally identical module
    characterized under different input streams carries different ones.
    Not memoized: RTL embedding adds behaviors in place.
    """
    return (module_content_signature(module, design), _behavior_rows(module))


def _behavior_rows(module: "RTLModule") -> tuple:
    """``(behavior, profile, cap_internal)`` per behavior, by behavior."""
    return tuple(
        sorted(
            (
                (behavior, impl.profile, impl.cap_internal)
                for behavior, impl in module._impls.items()
            ),
            key=lambda entry: entry[0],
        )
    )


def solution_pricing_signature(solution: "Solution", design: "Design") -> tuple:
    """Everything area/power evaluation reads from a solution.

    Extends :func:`solution_signature`'s structural identity with the
    deadline and the per-instance characterization numbers — together
    with the operand streams (:func:`sim_level_digest`) and the
    library/config (the store signature), this covers the full input
    domain of :func:`~repro.synthesis.incremental.evaluate_solution`.
    """
    return (
        solution_signature(solution, design),
        solution.deadline_cycles,
        tuple(
            (inst_id, module_pricing_signature(inst.module, design))
            for inst_id, inst in solution.instances.items()
            if inst.module is not None
        ),
    )


def sim_level_digest(sim, path: tuple = ()) -> str:
    """Digest of every value stream at one hierarchy level of a trace.

    Evaluation reads operand streams only at the context's own path, so
    this digest pins the trace-driven side of power estimation.
    Memoized on the trace object: a :class:`~repro.power.simulate.
    SimTrace` is fully populated at construction and never mutated
    afterwards.
    """
    cache = getattr(sim, "_level_digests", None)
    if cache is None:
        cache = sim._level_digests = {}
    digest = cache.get(path)
    if digest is None:
        pairs = sim.items_at(path)
        digest = digest_content(
            (
                tuple(signal for signal, _stream in pairs),
                stream_digest(stream for _signal, stream in pairs),
            )
        )
        cache[path] = digest
    return digest


class SynthesisStore:
    """Point / run / persistent tiers behind one lookup protocol."""

    def __init__(
        self,
        point_sizes: dict[str, int] | None = None,
        run_cache_size: int = RUN_CACHE_SIZE,
        cache_dir: str | None = None,
        shards: int | None = None,
    ):
        self._point_sizes = dict(point_sizes or {})
        self._point: dict[str, LRUCache] = {}
        self._run: LRUCache[tuple[str, str], bytes] = LRUCache(run_cache_size)
        #: Blobs written since the last export/reset; the parallel sweep
        #: ships them from worker outcomes back into the parent's run
        #: tier (see ``api._sweep_points``).
        self._fresh: list[tuple[str, str, bytes]] = []
        #: Guards the run tier, the counters and the SQLite connection,
        #: so one store object stays consistent if several threads use
        #: it at once.
        self._lock = threading.Lock()
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.persistent = self.cache_dir is not None
        #: Persistent-tier connections, one per shard (empty when the
        #: tier is disabled or unusable).
        self._dbs: list[sqlite3.Connection] = []
        self.shards = 1
        #: Rows not yet written to the persistent tier, in put order
        #: (``INSERT OR IGNORE``: the first blob put under a key wins).
        self._pending: dict[tuple[str, str], bytes] = {}
        #: Open :meth:`buffered` blocks; writes commit at once at zero.
        self._buffering = 0
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._evictions: dict[str, int] = {}
        #: Persistent-tier rows inserted and commits made (deletions
        #: of blobs that do not load are not counted).
        self._writes: dict[str, int] = {}
        #: Damage kinds ("corrupt", "fallback", "failed") already warned
        #: about.
        self._warned: set[str] = set()
        if self.persistent:
            try:
                self._dbs = self._open_dbs(shards)
                self.shards = len(self._dbs)
            except (sqlite3.Error, OSError):
                # A broken/locked database (or an unusable directory)
                # must never break synthesis; degrade to memory tiers.
                for db in self._dbs:
                    db.close()
                self._dbs = []
                self.persistent = False
                self._tick(self._misses, "fallback.persistent")
                self._warn_once(
                    "fallback",
                    "synthesis store: the database under the cache "
                    "directory does not open; only the in-memory tiers "
                    "are used",
                )

    @classmethod
    def from_config(cls, config: "SynthesisConfig") -> "SynthesisStore":
        """Build a store from a :class:`SynthesisConfig`'s store knobs."""
        sizes = {
            "schedule": SCHEDULE_CACHE_SIZE,
            # The corner sweep asks for each corner's metrics once.
            "metrics": 0,
            # A point's outcome is looked up once, at the point's start.
            "point": 0,
        }
        return cls(sizes, cache_dir=config.cache_dir, shards=config.store_shards)

    @staticmethod
    def detect_shards(cache_dir: str | Path) -> int:
        """Shard count of an existing on-disk layout (1 for fresh dirs).

        A sharded directory holds ``synthesis_store.shardNN.sqlite``
        files; the count is the highest index plus one, so readers that
        pass ``shards=None`` route digests exactly like the writer that
        created the layout.  A plain ``synthesis_store.sqlite`` (or an
        empty/missing directory) is the single-shard layout.
        """
        path = Path(cache_dir)
        if not path.is_dir():
            return 1
        indices = [
            int(m.group(1))
            for p in path.glob("synthesis_store.shard??.sqlite")
            if (m := _SHARD_RE.search(p.name)) is not None
        ]
        return max(indices) + 1 if indices else 1

    def bind(self, telemetry) -> None:
        """Write per-tier counters into *telemetry*'s store dicts.

        The dicts are shared by reference, so worker stores feeding a
        worker :class:`~repro.telemetry.Telemetry` merge into run totals
        through the existing ``Telemetry.merge``.
        """
        for mine, theirs in (
            (self._hits, telemetry.store_hits),
            (self._misses, telemetry.store_misses),
            (self._evictions, telemetry.store_evictions),
            (self._writes, telemetry.store_writes),
        ):
            for key, n in mine.items():
                theirs[key] = theirs.get(key, 0) + n
        self._hits = telemetry.store_hits
        self._misses = telemetry.store_misses
        self._evictions = telemetry.store_evictions
        self._writes = telemetry.store_writes

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------
    def point_tier(self, ns: str) -> LRUCache:
        """The live-object point tier of namespace *ns* (created lazily)."""
        tier = self._point.get(ns)
        if tier is None:
            tier = LRUCache(
                self._point_sizes.get(ns, MODULE_CACHE_SIZE)
            )
            self._point[ns] = tier
        return tier

    def _tick(self, counters: dict[str, int], key: str, n: int = 1) -> None:
        counters[key] = counters.get(key, 0) + n

    def _warn_once(self, kind: str, message: str) -> None:
        if kind not in self._warned:
            self._warned.add(kind)
            warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _unpickle(self, blob_key: tuple[str, str], blob: bytes) -> Any:
        """Unpickle a stored blob, or :data:`MISSING` when it does not.

        A blob that fails to load (garbage bytes, a truncated write, a
        class that no longer exists) is a miss counted under
        ``corrupt.{ns}``.  It is dropped from the run tier and the
        persistent tier, so the caller's recomputed :meth:`put` stores
        a good blob in its place.
        """
        try:
            return pickle.loads(blob)
        except Exception:
            with self._lock:
                self._tick(self._misses, f"corrupt.{blob_key[0]}")
                self._run.discard(blob_key)
                if self._pending.get(blob_key) == blob:
                    del self._pending[blob_key]
                # Delete only these bytes, committed at once: a
                # concurrent writer's good blob under the same key is
                # left alone.
                db = self._shard_for(blob_key[1])
                if db is not None:
                    self._write(
                        db,
                        "DELETE FROM store WHERE ns = ? AND key = ?"
                        " AND value = ?",
                        [(*blob_key, blob)],
                    )
            self._warn_once(
                "corrupt",
                "synthesis store: a stored entry does not load; it is "
                "recomputed and replaced (see the corrupt.* store counters)",
            )
            return MISSING

    @staticmethod
    def _digest(content: tuple | str) -> str:
        """The address of *content*: a ``str`` is a digest the caller
        made already, a tuple is hashed with :func:`digest_content`."""
        return content if type(content) is str else digest_content(content)

    def get(self, ns: str, key) -> Any:
        """Probe the point tier only; returns :data:`MISSING` on a miss.

        This is the legacy fast path: point keys need no canonical
        content (callers build the content key — which may require
        gathering streams — only after a point miss, via :meth:`fetch`).
        """
        tier = self.point_tier(ns)
        with self._lock:
            if key in tier:
                self._tick(self._hits, f"point.{ns}")
                return tier[key]
            self._tick(self._misses, f"point.{ns}")
            return MISSING

    def fetch(
        self,
        ns: str,
        key,
        content: tuple | str,
        decode: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Probe the run and persistent tiers after a point miss.

        On a hit the blob is unpickled (a fresh copy every time), passed
        through *decode* when given (module loads route through
        ``SynthesisEnv.adopt_loaded_module`` to keep generated-name
        sequences consistent), installed into the point tier under
        *key*, and returned; otherwise :data:`MISSING`.  A blob that
        does not unpickle is a counted miss (see :meth:`_unpickle`).
        """
        blob_key = (ns, self._digest(content))
        with self._lock:
            blob = self._run.get(blob_key)
            if blob is not None:
                self._tick(self._hits, f"run.{ns}")
            else:
                self._tick(self._misses, f"run.{ns}")
                blob = self._db_get(blob_key)
                if blob is not None:
                    self._run_put(blob_key, blob)
        if blob is None:
            return MISSING
        value = self._unpickle(blob_key, blob)
        if value is MISSING:
            return MISSING
        if decode is not None:
            value = decode(value)
        with self._lock:
            self._point_put(ns, key, value)
        return value

    def contains(self, ns: str, contents: Iterable[tuple | str]) -> list[bool]:
        """Whether the run or persistent tier holds each of *contents*.

        Nothing is loaded or installed.  A content held nowhere counts
        the misses its :meth:`fetch` would have counted, so a caller
        that fetches only what is held (the sweep's point probe, see
        ``api._sweep_points``) counts what fetching everything would.
        """
        held: list[bool] = []
        with self._lock:
            for content in contents:
                blob_key = (ns, self._digest(content))
                found = (
                    self._run.peek(blob_key) is not None
                    or blob_key in self._pending
                    or self._in_db(blob_key)
                )
                if not found:
                    self._tick(self._misses, f"run.{ns}")
                    if self._dbs:
                        self._tick(self._misses, f"persistent.{ns}")
                held.append(found)
        return held

    def _in_db(self, blob_key: tuple[str, str]) -> bool:
        db = self._shard_for(blob_key[1])
        if db is None:
            return False
        try:
            row = db.execute(
                "SELECT 1 FROM store WHERE ns = ? AND key = ?", blob_key
            ).fetchone()
        except sqlite3.Error:
            return False
        return row is not None

    def put(self, ns: str, key, content: tuple | str, value: Any) -> None:
        """Store a freshly computed value in every tier.

        The persistent row joins the pending batch, which is written at
        once outside a :meth:`buffered` block.
        """
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob_key = (ns, self._digest(content))
        with self._lock:
            self._point_put(ns, key, value)
            self._run_put(blob_key, blob)
            self._fresh.append((ns, blob_key[1], blob))
            if self._dbs:
                self._pending.setdefault(blob_key, blob)
                if not self._buffering or len(self._pending) >= _BATCH_ROWS:
                    self._flush()

    @contextmanager
    def buffered(self) -> Iterator["SynthesisStore"]:
        """Buffer persistent writes until the block ends.

        The sweep runs each operating point inside one, so the point's
        entries reach the database with one ``executemany`` and one
        commit per shard when it ends (and every ``_BATCH_ROWS``
        pending rows), not with one commit each.  The block flushes
        however it ends; entries are content-addressed and immutable,
        so one lost to a crash before then is only recomputed later.
        """
        with self._lock:
            self._buffering += 1
        try:
            yield self
        finally:
            with self._lock:
                self._buffering -= 1
                self._flush()

    def _point_put(self, ns: str, key, value: Any) -> None:
        tier = self.point_tier(ns)
        if key not in tier and 0 < tier.maxsize <= len(tier):
            self._tick(self._evictions, f"point.{ns}")
        tier.put(key, value)

    def _run_put(self, blob_key: tuple[str, str], blob: bytes) -> None:
        if blob_key not in self._run and 0 < self._run.maxsize <= len(self._run):
            self._tick(self._evictions, f"run.{blob_key[0]}")
        self._run.put(blob_key, blob)

    # ------------------------------------------------------------------
    # Point lifecycle / parallel-sweep plumbing
    # ------------------------------------------------------------------
    def reset_point(self) -> None:
        """Clear the point tiers (and pending exports) between points.

        The run and persistent tiers survive: their content addressing
        does not depend on per-point generated names.
        """
        with self._lock:
            for tier in self._point.values():
                tier.clear()
            self._fresh.clear()

    def export_fresh(self) -> list[tuple[str, str, bytes]]:
        """Drain the blobs written since the last export (worker side)."""
        with self._lock:
            fresh = self._fresh
            self._fresh = []
            return fresh

    def absorb(self, entries: list[tuple[str, str, bytes]]) -> None:
        """Install worker-exported blobs into this store's run tier.

        Workers with a ``--cache-dir`` already wrote the persistent
        tier themselves (idempotently), so absorption only feeds the
        parent's in-memory run tier.
        """
        with self._lock:
            for ns, digest, blob in entries:
                self._run_put((ns, digest), blob)

    def counters(self) -> dict[str, dict[str, int]]:
        """Sorted snapshot of the per-tier counters (trace ``run_end``)."""
        with self._lock:
            return {
                "hits": dict(sorted(self._hits.items())),
                "misses": dict(sorted(self._misses.items())),
                "evictions": dict(sorted(self._evictions.items())),
                "writes": dict(sorted(self._writes.items())),
            }

    # ------------------------------------------------------------------
    # Persistent tier (SQLite)
    # ------------------------------------------------------------------
    def _open_dbs(self, shards: int | None) -> list[sqlite3.Connection]:
        assert self.cache_dir is not None
        path = Path(self.cache_dir)
        path.mkdir(parents=True, exist_ok=True)
        if shards is None:
            shards = self.detect_shards(path)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards == 1:
            files = [path / _DB_NAME]
        else:
            files = [
                path / _SHARD_NAME.format(index=i) for i in range(shards)
            ]
        return [self._open_one(file) for file in files]

    def _open_one(self, file: Path) -> sqlite3.Connection:
        # check_same_thread=False: scoring threads may fetch/put; all
        # access is serialized by self._lock.
        db = sqlite3.connect(file, timeout=30.0, check_same_thread=False)
        attempt = 0
        while True:
            try:
                self._init_db(db)
                return db
            except sqlite3.OperationalError as exc:
                # Two processes opening a fresh file at once: the
                # journal-mode switch can fail at once with "database is
                # locked" (the busy timeout does not cover it).  Every
                # set-up statement is idempotent, so it simply reruns.
                attempt += 1
                transient = "locked" in str(exc) or "busy" in str(exc)
                if not transient or attempt == _WRITE_RETRIES:
                    db.close()
                    raise
                try:
                    db.rollback()
                except sqlite3.Error:
                    pass
                time.sleep(_WRITE_RETRY_SLEEP_S * attempt)

    @staticmethod
    def _init_db(db: sqlite3.Connection) -> None:
        """Set up one connection: WAL journaling, the schema and its
        version (dropping the entries of any other version)."""
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        # Belt over the connect timeout: writers blocked on another
        # process's write transaction wait instead of failing.
        db.execute("PRAGMA busy_timeout=30000")
        db.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        db.execute(
            "CREATE TABLE IF NOT EXISTS store ("
            " ns TEXT NOT NULL, key TEXT NOT NULL, value BLOB NOT NULL,"
            " PRIMARY KEY (ns, key))"
        )
        row = db.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            db.execute(
                "INSERT OR IGNORE INTO meta VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        elif row[0] != str(STORE_SCHEMA_VERSION):
            db.execute("DELETE FROM store")
            db.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION),),
            )
        db.commit()

    def _shard_index(self, digest: str) -> int:
        """Index of the shard owning *digest* (the tier must be on).

        Digests are uniform SHA-256 hex, so routing on the leading 32
        bits spreads the keyspace evenly; single-shard stores skip the
        arithmetic entirely.
        """
        if len(self._dbs) == 1:
            return 0
        return int(digest[:8], 16) % len(self._dbs)

    def _shard_for(self, digest: str) -> sqlite3.Connection | None:
        """Connection owning *digest*, or ``None`` when the tier is off."""
        if not self._dbs:
            return None
        return self._dbs[self._shard_index(digest)]

    def _db_get(self, blob_key: tuple[str, str]) -> bytes | None:
        """The persistent tier's blob under *blob_key*, counted.

        The pending batch answers before SQL.
        """
        db = self._shard_for(blob_key[1])
        if db is None:
            return None
        blob = self._pending.get(blob_key)
        if blob is None:
            try:
                row = db.execute(
                    "SELECT value FROM store WHERE ns = ? AND key = ?",
                    blob_key,
                ).fetchone()
            except sqlite3.Error:
                return None
            blob = row[0] if row is not None else None
        ns = blob_key[0]
        if blob is not None:
            self._tick(self._hits, f"persistent.{ns}")
            return blob
        self._tick(self._misses, f"persistent.{ns}")
        return None

    def _flush(self) -> None:
        """Write the pending batch: one ``executemany`` and one commit
        per shard, each counted in ``store_writes`` once it commits,
        with the rows it inserted (a key already stored is ignored).
        The caller holds the lock."""
        if not self._pending:
            return
        rows: dict[int, list[tuple[str, str, bytes]]] = {}
        for (ns, digest), blob in self._pending.items():
            rows.setdefault(self._shard_index(digest), []).append(
                (ns, digest, blob)
            )
        self._pending = {}
        for index, shard_rows in sorted(rows.items()):
            inserted = self._write(
                self._dbs[index],
                "INSERT OR IGNORE INTO store VALUES (?, ?, ?)",
                shard_rows,
            )
            if inserted is not None:
                self._tick(self._writes, "rows", inserted)
                self._tick(self._writes, "commits")

    def _write(
        self,
        db: sqlite3.Connection,
        sql: str,
        rows: list[tuple[str, str, bytes]],
    ) -> int | None:
        """Run *sql* over *rows* in one transaction: the rows it changed,
        or ``None`` when it did not commit.

        Transient writer contention (WAL serializes writers) is retried
        with a back-off: entries are immutable (``INSERT OR IGNORE``)
        and a deletion names the exact bytes it removes, so retrying is
        sound.  Any other failure, or contention that outlasts the
        retries, drops the rows — they are recomputed when next needed
        — and counts one ``failed.persistent`` miss.
        """
        for attempt in range(_WRITE_RETRIES):
            try:
                changed = db.executemany(sql, rows).rowcount
                db.commit()
            except sqlite3.OperationalError as exc:
                transient = "locked" in str(exc) or "busy" in str(exc)
                if not transient or attempt == _WRITE_RETRIES - 1:
                    break
                try:
                    db.rollback()
                except sqlite3.Error:
                    pass
                time.sleep(_WRITE_RETRY_SLEEP_S * (attempt + 1))
            except sqlite3.Error:
                break
            else:
                return changed
        try:
            db.rollback()
        except sqlite3.Error:
            pass
        self._tick(self._misses, "failed.persistent")
        self._warn_once(
            "failed",
            "synthesis store: a write to the database under the cache "
            "directory failed; its entries are recomputed when next "
            "needed (see the failed.persistent store counter)",
        )
        return None

    def persistent_stats(self) -> dict[str, Any]:
        """Entry counts and on-disk size of the persistent tier.

        Aggregated across shards; ``path`` names the single database
        file of a one-shard store and the cache directory otherwise.
        """
        if not self._dbs or self.cache_dir is None:
            return {"path": None, "entries": {}, "total_entries": 0,
                    "bytes": 0, "shards": 0}
        entries: dict[str, int] = {}
        size = 0
        with self._lock:
            self._flush()
            for db, file in zip(self._dbs, self._db_files()):
                rows = db.execute(
                    "SELECT ns, COUNT(*), SUM(LENGTH(value)) FROM store"
                    " GROUP BY ns ORDER BY ns"
                ).fetchall()
                for ns, n, _sz in rows:
                    entries[ns] = entries.get(ns, 0) + n
                size += file.stat().st_size if file.exists() else 0
        path = (
            Path(self.cache_dir) / _DB_NAME
            if len(self._dbs) == 1
            else Path(self.cache_dir)
        )
        return {
            "path": str(path),
            "entries": dict(sorted(entries.items())),
            "total_entries": sum(entries.values()),
            "bytes": size,
            "shards": len(self._dbs),
        }

    def _db_files(self) -> list[Path]:
        assert self.cache_dir is not None
        root = Path(self.cache_dir)
        if len(self._dbs) == 1:
            return [root / _DB_NAME]
        return [
            root / _SHARD_NAME.format(index=i) for i in range(len(self._dbs))
        ]

    def clear_persistent(self) -> int:
        """Delete every persistent entry; returns the number removed."""
        removed = 0
        with self._lock:
            self._flush()
            for db in self._dbs:
                n = db.execute("SELECT COUNT(*) FROM store").fetchone()[0]
                db.execute("DELETE FROM store")
                db.commit()
                removed += int(n)
        return removed

    def prune_persistent(self, max_entries: int) -> int:
        """Evict oldest-inserted entries beyond *max_entries*.

        Content-addressed entries are immutable and never rewritten
        (``INSERT OR IGNORE``), so SQLite's implicit ``rowid`` is a
        faithful insertion clock: pruning lowest rowids first drops the
        longest-stored results — for a fuzzing/corpus workload, the
        designs least likely to recur.  Sharded stores split the budget
        evenly across shards (digest routing is uniform, so per-shard
        insertion order is the per-shard age order).  Returns the number
        evicted, and counts them in telemetry as ``persistent.<ns>``
        evictions.
        """
        if not self._dbs:
            return 0
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        k = len(self._dbs)
        base, extra = divmod(max_entries, k)
        evicted = 0
        with self._lock:
            self._flush()
            for index, db in enumerate(self._dbs):
                quota = base + (1 if index < extra else 0)
                try:
                    victims = db.execute(
                        "SELECT rowid, ns FROM store ORDER BY rowid DESC"
                        " LIMIT -1 OFFSET ?",
                        (quota,),
                    ).fetchall()
                    if not victims:
                        continue
                    db.executemany(
                        "DELETE FROM store WHERE rowid = ?",
                        [(rowid,) for rowid, _ns in victims],
                    )
                    db.commit()
                except sqlite3.Error:
                    continue
                for _rowid, ns in victims:
                    self._tick(self._evictions, f"persistent.{ns}")
                evicted += len(victims)
        return evicted

    def close(self) -> None:
        """Write the pending batch, then close the persistent
        connections (idempotent)."""
        with self._lock:
            self._flush()
            for db in self._dbs:
                db.close()
            self._dbs = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tiers = ", ".join(
            f"{ns}:{len(t)}" for ns, t in sorted(self._point.items())
        )
        return (
            f"SynthesisStore(point=[{tiers}], run={len(self._run)}, "
            f"persistent={self.persistent})"
        )
