"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.consensus import (
    A1,
    COptFloodSet,
    COptFloodSetWS,
    FloodSet,
    FloodSetWS,
    FOptFloodSet,
    FOptFloodSetWS,
)

#: ``HYPOTHESIS_PROFILE=ci`` makes every property test deterministic and
#: independent of any local example database (CI selects it).
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests needing different streams reseed."""
    return random.Random(0xC0FFEE)


@pytest.fixture(
    params=[
        FloodSet,
        FloodSetWS,
        COptFloodSet,
        COptFloodSetWS,
        FOptFloodSet,
        FOptFloodSetWS,
    ],
    ids=lambda cls: cls.__name__,
)
def floodset_family(request):
    """Every FloodSet-derived algorithm (excludes A1, which needs t=1)."""
    return request.param()


@pytest.fixture(
    params=[FloodSet, FloodSetWS, COptFloodSet, COptFloodSetWS,
            FOptFloodSet, FOptFloodSetWS, A1],
    ids=lambda cls: cls.__name__,
)
def any_algorithm(request):
    """Every paper algorithm (all support t=1)."""
    return request.param()
