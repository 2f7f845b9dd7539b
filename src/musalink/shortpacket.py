"""Finite-blocklength reliability of single-slot short packets.

Normal-approximation error probability for D bits carried in one slot of
B*T_f/n_s channel uses at the AWGN dispersion (log2 e)^2 bits^2, in both
the base-2 form and the natural-log form that checks the residual of the
closed-form reliability bound; the two are the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SystemConfig

__all__ = [
    "BlocklengthPoint",
    "q_function",
    "packet_error_prob",
    "error_prob_ln_form",
    "max_snr_proxy",
]

_SQRT2 = math.sqrt(2.0)
LN2 = math.log(2.0)
DISPERSION = math.log2(math.e) ** 2  # AWGN channel dispersion, bits^2


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    if math.isnan(x):
        raise ValueError("q_function argument must not be NaN")
    return 0.5 * math.erfc(x / _SQRT2)


@dataclass(frozen=True)
class BlocklengthPoint:
    """One operating point of the error model, at dispersion :data:`DISPERSION`."""
    sinr: float           # linear SINR at the receiver
    n_slots: float        # slots per frame (real-relaxed)
    channel_uses: float   # bandwidth-time product B * T_f of the frame
    packet_bits: int      # payload bits per packet

    def __post_init__(self):
        if self.n_slots <= 0:
            raise ValueError("n_slots must be > 0")
        if self.channel_uses / self.n_slots < 1.0:
            raise ValueError("need at least one channel use per slot")
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be a positive integer")


def packet_error_prob(pt: BlocklengthPoint) -> float:
    """Decoding error probability of one packet in one slot (base-2 form)."""
    if pt.sinr <= 0:
        raise ValueError("sinr must be > 0")
    rate = pt.packet_bits * pt.n_slots / pt.channel_uses  # bits per channel use
    arg = math.sqrt(pt.channel_uses / (DISPERSION * pt.n_slots)) * (
        math.log2(1.0 + pt.sinr) - rate
    )
    return q_function(arg)


def error_prob_ln_form(
    gamma: float, n: float, bandwidth: float, frame_duration: float, packet_bits: int
) -> float:
    """Natural-log form of the error probability behind the reliability bound.

    The same quantity as :func:`packet_error_prob`, in natural logarithms.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if n <= 0:
        raise ValueError("n must be > 0")
    bt = bandwidth * frame_duration
    arg = math.sqrt(bt / n) * (
        math.log1p(gamma) - packet_bits / bt * LN2 * n
    )
    return q_function(arg)


def max_snr_proxy(cfg: SystemConfig) -> float:
    """Best-case SINR: the lone active device directly beneath the UAV.

    Noise-limited link at horizontal distance zero, with the equal-split
    per-packet power :meth:`SystemConfig.mean_packet_power`.
    """
    return cfg.mean_packet_power() * cfg.path_gain(0.0) / cfg.channel.noise_power
