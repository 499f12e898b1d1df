"""The fluid tick loop against its heap-based reference, bit for bit.

:meth:`repro.fluid.FluidEngine.run` batches its per-tick bookkeeping
(one gather per array per tick, birth state filled after the loop,
death state written once per tick, heap entries packed into ints).
``tests/reference/fluid_engine.py`` keeps the loop it was rewritten
from; every field of the
:class:`~repro.fluid.FluidResult` the two return must match exactly,
NaNs and sign bits included.

The cases are small random populations built as :class:`FlowClass`
lists directly, so they reach what a traffic matrix rarely does: equal
finish thresholds (the flow-id tiebreak), classes held at zero rate
(their members finish at the tick's end), unbounded members, rate caps,
lossy paths, two algorithm groups, and both loss modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.fluid import FlowClass, FluidEngine
from repro.tcp.congestion import Cubic, Reno

from .reference.fluid_engine import FluidEngine as ReferenceEngine

ALGORITHMS = (Reno(), Cubic())


def _population(classes_spec, n_flows, rng):
    """:class:`FlowClass` list from per-class parameter dicts; members get
    a random share of the global flow ids, sorted by (start, id)."""
    owner = rng.permutation(np.repeat(
        np.arange(len(classes_spec)),
        [c["population"] for c in classes_spec]))
    classes = []
    for index, spec in enumerate(classes_spec):
        ids = np.flatnonzero(owner == index)
        starts = np.asarray(spec["starts"], dtype=np.float64)
        sizes = np.asarray(spec["sizes"], dtype=np.float64)
        order = np.lexsort((ids, starts))
        classes.append(FlowClass(
            index=index, algorithm=ALGORITHMS[spec["algorithm"]],
            link_indices=spec["links"], rtt_s=spec["rtt"],
            mss_bits=spec["mss"], rwnd_pkts=spec["rwnd"],
            random_loss=spec["loss"], streams_per_flow=spec["streams"],
            rate_cap_bps=spec["cap"], flow_ids=ids[order],
            starts_s=starts[order], per_stream_bits=sizes[order],
            phase=spec["phase"]))
    assert sum(c.population for c in classes) == n_flows
    return classes


@st.composite
def fluid_cases(draw):
    n_links = draw(st.integers(1, 5))
    caps = np.array([draw(st.sampled_from([0.0, 2e8, 1e9, 1e9, 1e10]))
                     for _ in range(n_links)])
    buffers = caps * draw(st.sampled_from([0.0, 0.002, 0.1]))
    n_classes = draw(st.integers(1, 10))
    budget = 400
    classes_spec = []
    for _ in range(n_classes):
        population = draw(st.integers(1, max(1, min(60, budget))))
        budget -= population
        links = draw(st.lists(st.integers(0, n_links - 1), min_size=1,
                              max_size=3, unique=True))
        # Starts and sizes come from small grids, so members of one
        # class are often born in the same tick with the same size:
        # equal finish thresholds, popped in flow-id order.
        starts = draw(st.lists(
            st.sampled_from([0.0, 0.0, 0.004, 0.03, 0.1]) |
            st.floats(0.0, 0.2), min_size=population, max_size=population))
        sizes = draw(st.lists(
            st.sampled_from([0.0, 2e5, 1e6, 1e6, 4e6, np.inf]),
            min_size=population, max_size=population))
        classes_spec.append(dict(
            population=population, links=tuple(sorted(links)),
            algorithm=draw(st.integers(0, 1)),
            rtt=draw(st.sampled_from([0.004, 0.01, 0.04])),
            mss=draw(st.sampled_from([1500.0 * 8, 8960.0 * 8])),
            rwnd=draw(st.sampled_from([8.0, 64.0, 1000.0])),
            loss=draw(st.sampled_from([0.0, 0.0, 0.0, 1e-4])),
            streams=draw(st.sampled_from([1, 2, 4])),
            cap=draw(st.sampled_from([np.inf, np.inf, np.inf, 5e7, 0.0])),
            phase=draw(st.sampled_from([0.0, 0.25, 0.5])),
            starts=starts, sizes=sizes))
        if budget <= 0:
            break
    n_flows = sum(c["population"] for c in classes_spec)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    classes = _population(classes_spec, n_flows, np.random.default_rng(seed))
    dt = min(min(c["rtt"] for c in classes_spec) / 2.0, 0.05)
    until_given = draw(st.booleans())
    return dict(
        classes=classes, caps=caps, buffers=buffers, dt=dt,
        deterministic=draw(st.booleans()),
        initial_cwnd=draw(st.sampled_from([2.0, 10.0])),
        horizon=draw(st.sampled_from([0.05, 0.2, 0.6])) if until_given
        else np.inf,
        until_given=until_given,
        sample_interval=draw(st.sampled_from([0.01, 1.0])))


def _run(engine_cls, case):
    engine = engine_cls(case["classes"], case["caps"], case["buffers"],
                        initial_cwnd=case["initial_cwnd"], dt_s=case["dt"],
                        deterministic_loss=case["deterministic"])
    try:
        return engine.run(horizon_s=case["horizon"],
                          until_given=case["until_given"], max_ticks=600,
                          sample_interval_s=case["sample_interval"])
    except SimulationError as exc:
        return exc


def _assert_identical(got, want):
    if isinstance(want, SimulationError):
        assert isinstance(got, SimulationError) and str(got) == str(want)
        return
    assert not isinstance(got, SimulationError), got
    for name in ("delivered_bits", "finish_s", "started", "queues_bits",
                 "class_delivered_bits", "class_population"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.now_s, got.ticks, got.classes_retired) == (
        want.now_s, want.ticks, want.classes_retired)
    assert np.array(got.samples).tobytes() == np.array(want.samples).tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=fluid_cases())
def test_tick_loop_matches_reference(case):
    _assert_identical(_run(FluidEngine, case), _run(ReferenceEngine, case))


def _one_link_case(classes_spec, *, caps=(1e9,), buffer_frac=0.002,
                   deterministic=True, horizon=0.3, until_given=True):
    n_flows = sum(c["population"] for c in classes_spec)
    caps = np.array(caps)
    base = dict(links=(0,), algorithm=0, rtt=0.01, mss=8960.0 * 8,
                rwnd=1000.0, loss=0.0, streams=1, cap=np.inf, phase=0.0)
    spec = [dict(base, **c) for c in classes_spec]
    return dict(
        classes=_population(spec, n_flows, np.random.default_rng(0)),
        caps=caps, buffers=caps * buffer_frac, dt=0.005,
        deterministic=deterministic, initial_cwnd=10.0,
        horizon=horizon if until_given else np.inf,
        until_given=until_given, sample_interval=0.01)


def _spread(n, lo, hi):
    return list(np.linspace(lo, hi, n))


CASES = {
    # Many members of one class finish in the same tick with different
    # overshoots, so ``agg`` depends on the order they are popped in;
    # ties in (start, size) exercise the flow-id tiebreak.
    "simultaneous-finishers": [
        dict(population=120, starts=[0.0] * 60 + [0.01] * 60,
             sizes=_spread(60, 1e6, 1.2e6) * 2),
    ],
    # Two algorithm groups updating windows side by side under loss.
    "two-groups": [
        dict(population=30, starts=_spread(30, 0.0, 0.1),
             sizes=[4e6] * 30, algorithm=0),
        dict(population=30, starts=_spread(30, 0.0, 0.1),
             sizes=[4e6] * 30, algorithm=1, phase=0.5),
    ],
    # A class capped at zero rate: its zero-sized members finish at the
    # end of the tick they were born in, at no rate.
    "zero-rate": [
        dict(population=5, starts=[0.0, 0.0, 0.02, 0.02, 0.05],
             sizes=[0.0] * 5, cap=0.0),
        dict(population=10, starts=_spread(10, 0.0, 0.05),
             sizes=[np.inf] * 5 + [2e6] * 5),
    ],
    # A class that empties and refills while another keeps its link
    # congested: loss pressure builds only on live classes.
    "idle-on-congested-link": [
        dict(population=2, starts=[0.0, 0.15], sizes=[2e5, 2e6]),
        dict(population=40, starts=[0.0] * 40, sizes=[np.inf] * 40,
             phase=0.5),
    ],
    # Random path loss with an RNG-style congestion pressure.
    "lossy": [
        dict(population=20, starts=_spread(20, 0.0, 0.1),
             sizes=[3e6] * 20, loss=1e-4),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("deterministic", [True, False])
def test_named_case_matches_reference(name, deterministic):
    case = _one_link_case(CASES[name], deterministic=deterministic)
    got, want = _run(FluidEngine, case), _run(ReferenceEngine, case)
    assert not isinstance(want, SimulationError)
    assert want.started.any() and np.isfinite(want.finish_s).any()
    _assert_identical(got, want)


def test_run_to_completion_matches_reference():
    """No horizon: the loop stops when the last sized member finishes."""
    case = _one_link_case(CASES["simultaneous-finishers"],
                          until_given=False)
    got, want = _run(FluidEngine, case), _run(ReferenceEngine, case)
    assert np.isfinite(want.finish_s).all()
    _assert_identical(got, want)
