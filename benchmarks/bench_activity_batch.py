"""Batched activity kernel: microbenchmark against scalar resolution.

Candidate pricing resolves every activity-key miss across a KL round's
candidate set through one call of the batched kernel
(``repro.power.activity.batch_activities``, driven by
``EvaluationContext.evaluate_batch``).  This bench resolves one
realistic request set through the batched kernel and through one scalar
call per request, cold caches on both sides, and asserts bit-identical
floats.  It isolates the NumPy dispatch overhead the batch amortizes;
end-to-end pricing time is measured by the harness in
``benchmarks/harness``.

Writes ``benchmarks/results/activity_batch.txt``.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_activity_batch.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.power import (
    batch_activities,
    interleaved_activity,
    reset_activity_caches,
)

from conftest import save_result

#: Kernel microbenchmark shape: a KL round's worth of activity misses.
_KERNEL_REQUESTS = 192
_KERNEL_STREAMS = 48
_KERNEL_SAMPLES = 256
_KERNEL_REPEATS = 5


def _kernel_micro() -> dict:
    """Batched vs scalar resolution of one synthetic request set."""
    rng = np.random.default_rng(6)
    streams = [
        rng.integers(-(1 << 15), 1 << 15, size=_KERNEL_SAMPLES)
        for _ in range(_KERNEL_STREAMS)
    ]
    requests = []
    for i in range(_KERNEL_REQUESTS):
        k = 1 + (i % 4)  # mix of dedicated and 2-4-way shared buses
        group = tuple(streams[(i * 7 + j) % _KERNEL_STREAMS] for j in range(k))
        requests.append((group, 16))

    batched_s = scalar_s = float("inf")
    batched = scalar = None
    for _ in range(_KERNEL_REPEATS):
        reset_activity_caches()
        t0 = time.perf_counter()
        batched = batch_activities(requests)
        batched_s = min(batched_s, time.perf_counter() - t0)
        reset_activity_caches()
        t0 = time.perf_counter()
        scalar = [
            interleaved_activity(list(group), width)
            for group, width in requests
        ]
        scalar_s = min(scalar_s, time.perf_counter() - t0)
    reset_activity_caches()
    assert batched == scalar, "batched kernel diverged from scalar path"
    return {
        "requests": _KERNEL_REQUESTS,
        "samples": _KERNEL_SAMPLES,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
    }


def test_batched_activity_kernel():
    kernel = _kernel_micro()
    save_result("activity_batch", "\n".join([
        "Batched activity kernel vs scalar resolution",
        f"(best of {_KERNEL_REPEATS}, cold caches)",
        "============================================",
        f"kernel:  {kernel['requests']} requests x "
        f"{kernel['samples']} samples: "
        f"{kernel['scalar_s'] * 1e3:.1f} ms scalar -> "
        f"{kernel['batched_s'] * 1e3:.1f} ms batched "
        f"({kernel['speedup']:.1f}x), results bit-identical",
    ]))
