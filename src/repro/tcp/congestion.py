"""Pluggable TCP congestion-control algorithms.

The fluid connection model (:mod:`repro.tcp.connection`) advances the
congestion window once per round-trip.  An algorithm supplies three pieces:

* the *additive increase* applied per loss-free RTT in congestion
  avoidance (possibly a function of time since the last loss — this is
  where H-TCP and CUBIC get their high-BDP advantage over Reno);
* the *multiplicative decrease* applied on a loss event;
* the slow-start growth factor.

The algorithms implemented are the ones in the paper's Figure 1 (TCP-Reno
and TCP-Hamilton/H-TCP) plus CUBIC (the Linux default on DTNs since 2.6.19)
and a loss-free ideal used to draw the figure's topmost line.

References: RFC 5681 (Reno), Leith & Shorten 2004 (H-TCP), Ha, Rhee & Xu
2008 (CUBIC).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CongestionControl",
    "Reno",
    "HTcp",
    "Cubic",
    "LossFreeIdeal",
    "algorithm_by_name",
    "register_algorithm",
]


class CongestionControl(ABC):
    """Strategy interface for window evolution.

    All window quantities are in *segments* (floats — the fluid model does
    not quantize).  Implementations must be stateless across connections;
    per-connection state is limited to what the model passes in
    (current window, time since last loss event, RTT).
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Slow-start per-RTT multiplier (2.0 = classic doubling).
    slow_start_factor: float = 2.0

    @abstractmethod
    def increase(self, cwnd: float, time_since_loss: float, rtt: float) -> float:
        """Additive window increase (segments) for one loss-free RTT
        in congestion avoidance."""

    @abstractmethod
    def decrease_factor(self, cwnd: float, rtt_min: float, rtt_max: float) -> float:
        """Multiplicative factor applied to cwnd on a loss event (in (0,1))."""

    def on_loss(self, cwnd: float, rtt_min: float, rtt_max: float) -> float:
        """New congestion window after a loss event."""
        beta = self.decrease_factor(cwnd, rtt_min, rtt_max)
        if not 0.0 < beta < 1.0:
            raise ConfigurationError(
                f"{self.name}: decrease factor must be in (0,1), got {beta}"
            )
        return max(1.0, cwnd * beta)

    # -- batch (array) API --------------------------------------------------
    # The multi-flow simulator updates many streams per tick, so each
    # algorithm also exposes elementwise ndarray versions of its update
    # rules.  numpy routes array arithmetic (notably ``**``) through SIMD
    # loops whose last-bit rounding can differ from libm scalar calls, so
    # the batch methods are the *canonical* arithmetic for the multi-flow
    # model: both its backends call these (the scalar reference on
    # length-1 arrays), which keeps the backends bit-identical.  The
    # scalar methods above remain the canonical path for the single
    # connection model.  The defaults fall back to the scalar methods so
    # third-party subclasses keep working unmodified.

    def increase_batch(self, cwnd: np.ndarray, time_since_loss: np.ndarray,
                       rtt: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`increase` over stream-state arrays."""
        return np.array([
            self.increase(float(c), float(t), float(r))
            for c, t, r in zip(cwnd, time_since_loss, rtt)
        ], dtype=np.float64)

    def decrease_factor_batch(self, cwnd: np.ndarray, rtt_min: np.ndarray,
                              rtt_max: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`decrease_factor` over stream-state arrays."""
        return np.array([
            self.decrease_factor(float(c), float(lo), float(hi))
            for c, lo, hi in zip(cwnd, rtt_min, rtt_max)
        ], dtype=np.float64)

    def on_loss_batch(self, cwnd: np.ndarray, rtt_min: np.ndarray,
                      rtt_max: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`on_loss` over stream-state arrays."""
        beta = np.asarray(
            self.decrease_factor_batch(cwnd, rtt_min, rtt_max),
            dtype=np.float64)
        if np.any((beta <= 0.0) | (beta >= 1.0)):
            bad = beta[(beta <= 0.0) | (beta >= 1.0)][0]
            raise ConfigurationError(
                f"{self.name}: decrease factor must be in (0,1), got {bad}"
            )
        return np.maximum(1.0, cwnd * beta)

    def trace_attrs(self) -> Dict[str, float]:
        """Algorithm parameters attached to trace events (loss episodes,
        transfer spans) so a trace is self-describing.  Subclasses extend
        with their tuning constants."""
        return {"algorithm": self.name,
                "slow_start_factor": self.slow_start_factor}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Reno(CongestionControl):
    """Classic AIMD: +1 segment per RTT, halve on loss (RFC 5681)."""

    name = "reno"

    def increase(self, cwnd: float, time_since_loss: float, rtt: float) -> float:
        return 1.0

    def decrease_factor(self, cwnd: float, rtt_min: float, rtt_max: float) -> float:
        return 0.5

    def increase_batch(self, cwnd: np.ndarray, time_since_loss: np.ndarray,
                       rtt: np.ndarray) -> np.ndarray:
        return np.ones_like(cwnd)

    def decrease_factor_batch(self, cwnd: np.ndarray, rtt_min: np.ndarray,
                              rtt_max: np.ndarray) -> np.ndarray:
        return np.full_like(cwnd, 0.5)


class HTcp(CongestionControl):
    """H-TCP (Hamilton Institute), the paper's "TCP-Hamilton".

    The additive increase is a function of the time Δ since the last
    congestion event: for Δ ≤ Δ_L (1 s) it behaves like Reno; beyond that

    .. math:: \\alpha(\\Delta) = 1 + 10(\\Delta - \\Delta_L)
              + \\left(\\frac{\\Delta - \\Delta_L}{2}\\right)^2

    so long loss-free periods on high-BDP paths ramp the window far faster
    than Reno's one-segment-per-RTT.  The backoff factor adapts to RTT
    variation: β = RTT_min / RTT_max, clamped to [0.5, 0.8].
    """

    name = "htcp"
    delta_l: float = 1.0  # seconds of Reno-compatible low-speed regime

    def trace_attrs(self) -> Dict[str, float]:
        attrs = super().trace_attrs()
        attrs["delta_l"] = self.delta_l
        return attrs

    def increase(self, cwnd: float, time_since_loss: float, rtt: float) -> float:
        delta = max(0.0, time_since_loss)
        if delta <= self.delta_l:
            return 1.0
        excess = delta - self.delta_l
        return 1.0 + 10.0 * excess + (excess / 2.0) ** 2

    def decrease_factor(self, cwnd: float, rtt_min: float, rtt_max: float) -> float:
        if rtt_max <= 0:
            return 0.5
        beta = rtt_min / rtt_max
        return min(0.8, max(0.5, beta))

    def increase_batch(self, cwnd: np.ndarray, time_since_loss: np.ndarray,
                       rtt: np.ndarray) -> np.ndarray:
        delta = np.maximum(0.0, time_since_loss)
        excess = delta - self.delta_l
        high = 1.0 + 10.0 * excess + (excess / 2.0) ** 2
        return np.where(delta <= self.delta_l, 1.0, high)

    def decrease_factor_batch(self, cwnd: np.ndarray, rtt_min: np.ndarray,
                              rtt_max: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(rtt_max > 0, rtt_min / np.where(rtt_max > 0,
                                                            rtt_max, 1.0), 0.5)
        return np.minimum(0.8, np.maximum(0.5, beta))


class Cubic(CongestionControl):
    """CUBIC (Ha, Rhee & Xu 2008): window is a cubic of time since loss.

    .. math:: W(t) = C (t - K)^3 + W_{max},\\quad
              K = \\sqrt[3]{W_{max} \\beta_{cubic} / C}

    with C = 0.4, β_cubic = 0.3 (decrease factor 0.7).  The fluid model
    calls :meth:`increase` per RTT; we return the cubic's growth over one
    RTT evaluated at the current time since loss, reconstructing
    :math:`W_{max}` from the current window and elapsed time.
    """

    name = "cubic"
    c: float = 0.4
    beta_cubic: float = 0.3  # fraction *removed* on loss

    def trace_attrs(self) -> Dict[str, float]:
        attrs = super().trace_attrs()
        attrs["c"] = self.c
        attrs["beta_cubic"] = self.beta_cubic
        return attrs

    def increase(self, cwnd: float, time_since_loss: float, rtt: float) -> float:
        # Reconstruct W_max from the invariant W(t) = C (t-K)^3 + W_max.
        # At the moment of loss, W(0) = (1-beta) W_max. We don't carry
        # W_max explicitly, so approximate it from the current state: the
        # cubic is symmetric around K, thus
        #   W_max = cwnd - C (t - K)^3.
        # Solving exactly needs W_max; instead we use the standard fluid
        # trick: estimate W_max as the window at the last loss divided by
        # (1 - beta). For the per-RTT update this reduces to evaluating the
        # cubic slope at t, with K inferred from cwnd growth history being
        # unavailable; the widely used approximation takes W_max ≈ cwnd at
        # loss time. We carry that via time_since_loss == 0 detection in
        # the connection model, which passes the post-loss window; here we
        # approximate W_max = cwnd / (1 - beta) when near the loss and
        # cwnd when beyond K (concave->convex crossover).
        w_max = cwnd / (1.0 - self.beta_cubic)
        k = (w_max * self.beta_cubic / self.c) ** (1.0 / 3.0)
        t = max(0.0, time_since_loss)
        w_now = self.c * (t - k) ** 3 + w_max
        w_next = self.c * (t + rtt - k) ** 3 + w_max
        growth = w_next - w_now
        # TCP-friendly region: never grow slower than Reno.
        return max(1.0, growth)

    def decrease_factor(self, cwnd: float, rtt_min: float, rtt_max: float) -> float:
        return 1.0 - self.beta_cubic

    def increase_batch(self, cwnd: np.ndarray, time_since_loss: np.ndarray,
                       rtt: np.ndarray) -> np.ndarray:
        w_max = cwnd / (1.0 - self.beta_cubic)
        k = (w_max * self.beta_cubic / self.c) ** (1.0 / 3.0)
        t = np.maximum(0.0, time_since_loss)
        w_now = self.c * (t - k) ** 3 + w_max
        w_next = self.c * (t + rtt - k) ** 3 + w_max
        return np.maximum(1.0, w_next - w_now)

    def decrease_factor_batch(self, cwnd: np.ndarray, rtt_min: np.ndarray,
                              rtt_max: np.ndarray) -> np.ndarray:
        return np.full_like(cwnd, 1.0 - self.beta_cubic)


class LossFreeIdeal(CongestionControl):
    """Reference algorithm for the loss-free environment of Figure 1.

    Grows aggressively and never sees loss events in a clean network, so a
    connection using it converges to the path/receive-window limit — the
    figure's topmost (purple) line.  If the network *does* lose packets it
    degrades like Reno, which keeps the model honest when someone runs the
    ideal over a dirty path.
    """

    name = "ideal"

    def increase(self, cwnd: float, time_since_loss: float, rtt: float) -> float:
        return max(1.0, cwnd * 0.5)  # exponential approach to the cap

    def decrease_factor(self, cwnd: float, rtt_min: float, rtt_max: float) -> float:
        return 0.5

    def increase_batch(self, cwnd: np.ndarray, time_since_loss: np.ndarray,
                       rtt: np.ndarray) -> np.ndarray:
        return np.maximum(1.0, cwnd * 0.5)

    def decrease_factor_batch(self, cwnd: np.ndarray, rtt_min: np.ndarray,
                              rtt_max: np.ndarray) -> np.ndarray:
        return np.full_like(cwnd, 0.5)


_REGISTRY: Dict[str, Type[CongestionControl]] = {}


def register_algorithm(cls: Type[CongestionControl]) -> Type[CongestionControl]:
    """Register a congestion-control class under its ``name``."""
    if not issubclass(cls, CongestionControl):
        raise ConfigurationError(f"{cls!r} is not a CongestionControl")
    if not cls.name or cls.name == "abstract":
        raise ConfigurationError("algorithm must define a concrete name")
    _REGISTRY[cls.name] = cls
    return cls


for _cls in (Reno, HTcp, Cubic, LossFreeIdeal):
    register_algorithm(_cls)


def algorithm_by_name(name: str) -> CongestionControl:
    """Instantiate a registered algorithm: 'reno', 'htcp', 'cubic', 'ideal'."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown congestion-control algorithm {name!r}; known: {known}"
        ) from None


def algorithm_key(algo: CongestionControl):
    """Group key for a congestion-control instance.

    Algorithms are stateless by contract, so instances of the same class
    with equal attributes are interchangeable: the multi-flow kernels
    and the fluid engine batch every flow whose instance has the same
    key into one update.
    """
    try:
        return (type(algo), tuple(sorted(vars(algo).items())))
    except TypeError:
        return id(algo)
