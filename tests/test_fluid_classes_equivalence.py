"""The vectorized flow-class builder against its dict-based reference.

:func:`repro.fluid.build_flow_classes` groups flows by one integer code
and orders members with a single sort; ``tests/reference/fluid_classes``
keeps the per-flow dict walk it replaced.  Both must return the same
classes, in the same order, with the same members, shards and phases.
Paths, link sets and transport parameters are drawn from small pools so
that distinct path indices often share a class key, which is where a
grouping shortcut would go wrong.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fluid import build_flow_classes
from repro.netsim.flow import FlowSpec
from repro.tcp.congestion import Cubic, HTcp, Reno
from repro.units import MB, Mbps, seconds
from tests.reference.fluid_classes import (
    build_flow_classes as reference_build_flow_classes)

LINK_SETS = [(0, 1), (0, 2), (3,)]
STREAMS = [1, 2, 4]
CAPS = [None, 100.0, 200.0]
SIZES = [None, 1.0, 2.5, 8.0]
STARTS = [0.0, 0.1, 0.25, 0.5]


def _slow_htcp():
    algo = HTcp()
    algo.delta_l = 2.0
    return algo


ALGORITHM_MAKERS = [Reno, Reno, HTcp, _slow_htcp, Cubic]


@st.composite
def class_problems(draw):
    n_paths = draw(st.integers(1, 6))
    path_links = [LINK_SETS[draw(st.integers(0, len(LINK_SETS) - 1))]
                  for _ in range(n_paths)]
    rtts = np.array([draw(st.sampled_from([0.01, 0.02]))
                     for _ in range(n_paths)])
    mss = np.full(n_paths, 72000.0)
    rwnd = np.array([draw(st.sampled_from([100.0, 512.0]))
                     for _ in range(n_paths)])
    loss = np.array([draw(st.sampled_from([0.0, 1e-6]))
                     for _ in range(n_paths)])
    algorithms = [ALGORITHM_MAKERS[i]() for i in draw(st.lists(
        st.integers(0, len(ALGORITHM_MAKERS) - 1), min_size=1, max_size=4))]

    n_flows = draw(st.integers(1, 60))
    flow = st.tuples(st.integers(0, n_paths - 1),
                     st.integers(0, len(algorithms) - 1),
                     st.sampled_from(STREAMS), st.sampled_from(CAPS),
                     st.sampled_from(SIZES), st.sampled_from(STARTS))
    rows = draw(st.lists(flow, min_size=n_flows, max_size=n_flows))
    specs = [FlowSpec(src="a", dst="b",
                      size=None if size is None else MB(size),
                      start=seconds(start), parallel_streams=streams,
                      rate_limit=None if cap is None else Mbps(cap),
                      label=f"f{i}")
             for i, (_, _, streams, cap, size, start) in enumerate(rows)]
    path_of = np.array([r[0] for r in rows], dtype=np.int64)
    algorithm_of = np.array([r[1] for r in rows], dtype=np.int64)
    rate_caps = np.array([np.inf if s.rate_limit is None
                          else s.rate_limit.bps for s in specs])
    n_shards = draw(st.integers(1, 9))
    return (specs, path_of, path_links, algorithms, algorithm_of, rtts,
            mss, rwnd, loss, rate_caps, n_shards)


@settings(max_examples=60, deadline=None)
@given(class_problems())
def test_builder_matches_reference(problem):
    (specs, path_of, path_links, algorithms, algorithm_of, rtts, mss, rwnd,
     loss, rate_caps, n_shards) = problem
    got = build_flow_classes(
        specs, path_of, path_links, algorithms, algorithm_of, rtts=rtts,
        mss_bits=mss, rwnd_pkts=rwnd, loss_p=loss, rate_caps=rate_caps,
        n_shards=n_shards)
    want = reference_build_flow_classes(
        specs, [path_links[p] for p in path_of],
        [algorithms[a] for a in algorithm_of], rtts=rtts[path_of],
        mss_bits=mss[path_of], rwnd_pkts=rwnd[path_of],
        loss_p=loss[path_of], rate_caps=rate_caps, n_shards=n_shards)

    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.index == w.index
        assert g.algorithm is w.algorithm
        assert g.link_indices == w.link_indices
        assert (g.rtt_s, g.mss_bits, g.rwnd_pkts, g.random_loss) == (
            w.rtt_s, w.mss_bits, w.rwnd_pkts, w.random_loss)
        assert g.streams_per_flow == w.streams_per_flow
        assert g.rate_cap_bps == w.rate_cap_bps
        assert g.phase == w.phase
        assert g.flow_ids.dtype == w.flow_ids.dtype
        assert g.flow_ids.tobytes() == w.flow_ids.tobytes()
        assert g.starts_s.tobytes() == w.starts_s.tobytes()
        assert g.per_stream_bits.tobytes() == w.per_stream_bits.tobytes()


def test_combined_codes_stay_exact_past_int64():
    """Folding a key whose span would overflow int64 re-numbers the
    codes first, so equal (code, index) pairs still get equal codes and
    distinct pairs distinct ones."""
    from repro.fluid.classes import _combine

    code = np.array([0, 2**40, 5, 2**40, 0], dtype=np.int64)
    index = np.array([2**30, 0, 2**30, 0, 7], dtype=np.int64)
    combined = _combine(code, index)
    pairs = list(zip(code.tolist(), index.tolist()))
    for i in range(code.size):
        for j in range(code.size):
            assert (combined[i] == combined[j]) == (pairs[i] == pairs[j])
    assert combined.min() >= 0
