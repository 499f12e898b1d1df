"""The max-min filler's live-set memo, and the allocator's input checks.

``_ProgressiveFiller.allocate`` fills only the flows with positive
demand and memoizes the restricted incidence under the live set, so
one filler driven through many calls reuses, rebuilds and discards
that memo.  The hypothesis test here walks a single filler through
live sets that grow, shrink, repeat, empty and fill, and compares
every call bit for bit with the scalar reference over all flows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.tcp.simulate import _ProgressiveFiller, max_min_fair_allocation
from tests.reference import kernels

STEPS = ("grow", "shrink", "repeat", "same", "empty", "fill", "redraw")


@st.composite
def live_set_walks(draw):
    """A filler's (usage, capacities, row_of) and a walk of demand
    vectors whose live sets change by the named steps."""
    n_links = draw(st.integers(1, 8))
    n_flows = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(0.1, 0.9, allow_nan=False))
    if draw(st.booleans()):
        # Flows share a few link sets, as simulations' paths do.
        n_sets = draw(st.integers(1, 5))
        pool = rng.random((n_sets, n_links)) < density
        row_of = rng.integers(0, n_sets, size=n_flows)
        usage = pool[row_of]
    else:
        row_of = None
        usage = rng.random((n_flows, n_links)) < density
    capacities = rng.random(n_links) * draw(st.floats(0.5, 100.0)) + 1e-3
    if draw(st.booleans()):
        capacities[rng.integers(0, n_links)] = np.inf
    scale = draw(st.floats(0.5, 200.0))
    steps = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=12))

    live = rng.random(n_flows) < 0.5
    values = rng.random(n_flows) * scale
    walk = []
    for step in steps:
        if step == "grow":
            live = live | (rng.random(n_flows) < 0.3)
        elif step == "shrink":
            live = live & (rng.random(n_flows) < 0.7)
        elif step == "empty":
            live = np.zeros(n_flows, dtype=bool)
        elif step == "fill":
            live = np.ones(n_flows, dtype=bool)
        if step != "same":
            # "repeat" keeps the live set with new demands; "same"
            # replays the previous vector exactly.
            values = rng.random(n_flows) * scale
            if step == "redraw":
                live = rng.random(n_flows) < 0.5
        demands = np.where(live, values, 0.0)
        if draw(st.booleans()) and live.any():
            demands[rng.choice(np.flatnonzero(live))] = np.inf
        walk.append(demands)
    return usage, capacities, row_of, walk


@settings(max_examples=60, deadline=None)
@given(live_set_walks())
def test_one_filler_through_changing_live_sets_matches_reference(problem):
    usage, capacities, row_of, walk = problem
    filler = _ProgressiveFiller(usage, capacities, row_of=row_of)
    for demands in walk:
        # An infinite demand on an infinite link leaves inf - inf
        # behind in both; the warnings say nothing about the match.
        with np.errstate(invalid="ignore"):
            got = filler.allocate(demands)
            want = kernels.allocate(filler, demands)
        assert got.tobytes() == want.tobytes()


def test_memo_is_reused_only_for_the_same_live_set():
    usage = np.array([[True, False], [True, True], [False, True]])
    filler = _ProgressiveFiller(usage, np.array([10.0, 4.0]))
    filler.allocate(np.array([3.0, 5.0, 0.0]))
    memo = filler._memo
    filler.allocate(np.array([1.0, 7.0, 0.0]))
    assert filler._memo is memo
    filler.allocate(np.array([1.0, 7.0, 2.0]))
    assert filler._memo is not memo


class TestInputChecks:
    USAGE = np.array([[True], [True]])

    @pytest.mark.parametrize("caps", [[-4.0], [np.nan]])
    def test_bad_capacity_rejected(self, caps):
        with pytest.raises(ConfigurationError, match="capacities"):
            max_min_fair_allocation(np.array([1.0, 1.0]), self.USAGE,
                                    np.array(caps))

    def test_bad_capacity_rejected_by_the_filler(self):
        with pytest.raises(ConfigurationError, match="capacities"):
            _ProgressiveFiller(self.USAGE, np.array([np.nan]))

    @pytest.mark.parametrize("demands", [[np.nan, 1.0], [-1.0, 1.0]])
    def test_bad_demand_rejected(self, demands):
        with pytest.raises(ConfigurationError, match="demands"):
            max_min_fair_allocation(np.array(demands), self.USAGE,
                                    np.array([4.0]))

    def test_zero_and_infinite_values_accepted(self):
        alloc = max_min_fair_allocation(np.array([0.0, np.inf]), self.USAGE,
                                        np.array([4.0]))
        assert alloc.tolist() == [0.0, 4.0]
        alloc = max_min_fair_allocation(np.array([2.0, 3.0]), self.USAGE,
                                        np.array([np.inf]))
        assert alloc.tolist() == [2.0, 3.0]
        alloc = max_min_fair_allocation(np.array([2.0, 3.0]), self.USAGE,
                                        np.array([0.0]))
        assert alloc.tolist() == [0.0, 0.0]
