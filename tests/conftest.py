import os
import sys

import pytest

import freemoments.rays
from freemoments.cumulants import MomentSequence
from freemoments.measures import Measure

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def corrupt_semicircle(monkeypatch):
    """Negative control for taylor-recovery: the exact side claims the
    standard semicircle has moments (0, 1, 0, 1), where the true fourth
    moment is 2.  Every other measure keeps its exact moments."""
    true_moments = freemoments.rays.moments
    semicircle = Measure.semicircle(0, 2)

    def corrupted(mu, p):
        if mu == semicircle:
            return MomentSequence((0, 1, 0, 1))
        return true_moments(mu, p)

    monkeypatch.setattr(freemoments.rays, "moments", corrupted)
