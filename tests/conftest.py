"""Shared fixtures: small designs, libraries and simulated traces.

The design constructors themselves live in :mod:`tests.designs` so that
hypothesis strategies, golden tests and the fuzzer can call them as
plain functions; this file only wraps them as fixtures.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.dfg import Design
from repro.library import default_library

from tests.designs import (
    make_butterfly_design,
    make_flat_design,
    make_flat_dfg,
    make_mixed_module_design,
    sim_for,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden regression fixtures under "
        "tests/integration/goldens/ instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture
def butterfly_design() -> Design:
    return make_butterfly_design()


@pytest.fixture
def flat_dfg():
    return make_flat_dfg()


@pytest.fixture
def flat_design() -> Design:
    return make_flat_design()


@pytest.fixture
def library():
    return default_library()


@pytest.fixture
def flat_sim(flat_design):
    return sim_for(flat_design)


@pytest.fixture
def butterfly_sim(butterfly_design):
    return sim_for(butterfly_design)


@pytest.fixture
def mixed_design() -> Design:
    return make_mixed_module_design()


@pytest.fixture
def mixed_library(mixed_design):
    """A complex-module library generated for the mixed-module design.

    Two corners per behavior, so every module instance has a library
    alternative to swap to.
    """
    from repro.synthesis import SynthesisConfig
    from repro.synthesis.library_gen import build_complex_library

    return build_complex_library(
        mixed_design,
        default_library(),
        laxity_factors=(1.5,),
        config=SynthesisConfig(max_moves=4, max_passes=1, n_clocks=1),
        n_samples=16,
    )


@pytest.fixture
def mixed_sim(mixed_design):
    return sim_for(mixed_design, n=16)


@pytest.fixture
def locked_journal_switch(monkeypatch):
    """Make the next *n* ``PRAGMA journal_mode`` statements fail.

    Each fails as a switch contended by another process opening the
    same fresh database does: at once, with ``database is locked``.
    Call the fixture's value with *n*; it returns the list of injected
    failures, which grows as they happen.
    """
    real_connect = sqlite3.connect
    remaining = [0]
    injected: list[str] = []

    class LockedSwitch(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql.startswith("PRAGMA journal_mode") and remaining[0] > 0:
                remaining[0] -= 1
                injected.append(sql)
                raise sqlite3.OperationalError("database is locked")
            return super().execute(sql, *args)

    def connect(*args, **kwargs):
        return real_connect(*args, factory=LockedSwitch, **kwargs)

    def install(n: int) -> list[str]:
        remaining[0] = n
        monkeypatch.setattr(sqlite3, "connect", connect)
        return injected

    return install


@pytest.fixture
def failing_writes(monkeypatch):
    """Make the next *n* write statements of new connections fail.

    Each ``executemany`` of an ``INSERT`` or ``DELETE`` (every write the
    synthesis store makes) raises ``OperationalError(message)`` instead
    of running.  Call the fixture's value with *n* and *message*; it
    returns the list of injected failures, which grows as they happen.
    """
    real_connect = sqlite3.connect
    remaining = [0]
    message = [""]
    injected: list[str] = []

    class FailingWrites(sqlite3.Connection):
        def executemany(self, sql, *args):
            if sql.startswith(("INSERT", "DELETE")) and remaining[0] > 0:
                remaining[0] -= 1
                injected.append(sql)
                raise sqlite3.OperationalError(message[0])
            return super().executemany(sql, *args)

    def connect(*args, **kwargs):
        return real_connect(*args, factory=FailingWrites, **kwargs)

    def install(n: int, error: str) -> list[str]:
        remaining[0] = n
        message[0] = error
        monkeypatch.setattr(sqlite3, "connect", connect)
        return injected

    return install
