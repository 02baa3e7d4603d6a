"""Recourse ledger arithmetic and the upward/total sandwich."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bodychase import DimensionMismatch, RecourseLedger


def test_pure_upward_step():
    led = RecourseLedger().record_step(np.ones(2), np.zeros(2), np.array([0.5, 0.5]))
    assert led.steps == [(1.0, 1.0)]
    assert led.upward_total == 1.0
    assert led.l1_total == 1.0


def test_pure_downward_step():
    led = RecourseLedger().record_step(np.ones(2), np.array([1.0, 1.0]), np.array([0.75, 0.75]))
    assert led.steps == [(0.0, 0.5)]


def test_mixed_weighted_step():
    w = np.array([2.0, 1.0])
    led = RecourseLedger().record_step(w, np.array([1.0, 0.0]), np.array([0.5, 1.0]))
    assert led.steps == [(1.0, 2.0)]
    assert led.upward_total == 1.0
    assert led.l1_total == 2.0


def test_dimension_and_weight_mismatch():
    led = RecourseLedger()
    with pytest.raises(DimensionMismatch):
        led.record_step(np.ones(2), np.zeros(2), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        led.record_step(np.ones(1), np.zeros(2), np.zeros(2))
    assert led.steps == []


coord = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, width=32)


@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8))
def test_sandwich_from_origin(points):
    # from x0 = 0 every unit moved down was first moved up, so l1 <= 2 * upward
    led = RecourseLedger()
    prev = np.zeros(3)
    for triple in points:
        nxt = np.array(triple, dtype=float)
        led.record_step(np.ones(3), prev, nxt)
        prev = nxt
    assert led.upward_total <= led.l1_total + 1e-9
    assert led.l1_total <= 2.0 * led.upward_total + 1e-9
