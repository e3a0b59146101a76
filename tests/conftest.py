"""Shared fixtures for the test suite."""

from __future__ import annotations

import glob
import multiprocessing

import numpy as np
import pytest

SHM_SEGMENTS = "/dev/shm/repro-*"


@pytest.fixture(scope="module", autouse=True)
def no_process_outlives_its_module(request):
    """Fail the module that leaves a child process or a shared-memory arena
    segment behind.  Segments are compared against a snapshot taken when
    the module starts, so arenas of other processes cannot trip it."""
    segments_before = set(glob.glob(SHM_SEGMENTS))
    yield
    children = multiprocessing.active_children()
    leaked = sorted(set(glob.glob(SHM_SEGMENTS)) - segments_before)
    assert not children, (
        f"{request.module.__name__} left child processes running: {children}"
    )
    assert not leaked, (
        f"{request.module.__name__} left shared-memory segments: {leaked}"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_keys(rng: np.random.Generator) -> np.ndarray:
    """A small stack of keys, shape [16, 2 heads, 8 dim]."""
    return rng.normal(size=(16, 2, 8))


@pytest.fixture
def small_values(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(16, 2, 8))
