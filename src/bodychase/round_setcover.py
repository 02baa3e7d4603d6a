"""Dynamic rounding of a fractional cover to an integral one.

Two schemes over the same selected-set state. The deterministic one
keeps every set whose fractional value is at least 1/f and applies a
hysteresis band down to 1/(2f), so a set's membership only flips after
its value moved by at least 1/(2f). The randomized one fixes one
exponential clock per set at initialization and thresholds the
fractional value against it, patching any uncovered element with its
cheapest containing set.
"""

from __future__ import annotations

import math

import numpy as np

from .adapters import AdapterError, SetCoverState
from .rng import SETCOVER_CLOCKS, substream

__all__ = ["CoverState", "round_det", "round_rand", "init_clocks"]


class CoverState:
    """Integral cover tracked alongside the fractional trajectory."""

    def __init__(self, instance: SetCoverState, clocks=None):
        self.instance = instance
        self.selected: set = set()
        self.sampled: set = set()
        self.backup: set = set()
        self.clocks = clocks
        self.recourse_total = 0
        self.step_recourse = 0

    def cost(self) -> float:
        costs = self.instance.costs.tolist()
        return float(sum(costs[i] for i in self.selected))

    def covers_live(self) -> bool:
        """One pass over the selected sets: their union holds every live element."""
        sets = self.instance.sets
        return set().union(*[sets[i] for i in self.selected]).issuperset(self.instance.live)

    def _commit(self, new_selected: set) -> None:
        self.step_recourse = len(new_selected ^ self.selected)
        self.recourse_total += self.step_recourse
        self.selected = new_selected


def init_clocks(instance: SetCoverState, seed: int, alpha: float, n: int) -> np.ndarray:
    """One exponential clock per set, rate log(alpha * n), from the set's own
    keyed stream (-log1p(-u) / rate), so replay ignores arrival order."""
    rate = math.log(alpha * n)
    if rate <= 0:
        raise AdapterError("alpha * n must exceed 1 for the clock rate")
    m = instance.dimension
    return np.array([
        substream(seed, SETCOVER_CLOCKS, i).exponential(1.0 / rate) for i in range(m)
    ])


def round_det(x, state: CoverState, f: int) -> CoverState:
    if f < 1:
        raise AdapterError("frequency bound must be at least 1")
    values = x.values
    if values.shape[0] != state.instance.dimension:
        raise AdapterError("point dimension does not match the set system")
    enter, leave = 1.0 / f, 1.0 / (2.0 * f)
    selected = state.selected
    state._commit({i for i, v in enumerate(values.tolist())
                   if v >= enter or (v > leave and i in selected)})
    return state


def round_rand(x, state: CoverState, alpha: float, n: int) -> CoverState:
    if state.clocks is None:
        raise AdapterError("clocks not initialized; call init_clocks first")
    values = x.values
    if values.shape[0] != state.clocks.shape[0]:
        raise AdapterError("point dimension does not match the clocks")
    sampled = set(np.flatnonzero(values >= state.clocks).tolist())
    backup = set()
    for u in sorted(state.instance.live):
        holders = state.instance.covering_sets(u)
        if any(i in sampled for i in holders):
            continue
        best = min(holders, key=lambda i: (state.instance.costs[i], i))
        backup.add(best)
    state.sampled = sampled
    state.backup = backup
    state._commit(sampled | backup)
    return state
