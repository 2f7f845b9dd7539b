"""Finite-blocklength reliability of single-slot short packets.

Normal-approximation error probability for D bits carried in one slot of
B*T_f/n_s channel uses at the AWGN dispersion (log2 e)^2 bits^2.  The
package ships one form, the natural-log :func:`error_prob_ln_form` that
checks the residual of the closed-form reliability bound; the base-2
form it is tested against, the same quantity, is ``packet_error_prob``
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

from .config import SystemConfig

__all__ = [
    "q_function",
    "error_prob_ln_form",
    "max_snr_proxy",
]

_SQRT2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    if math.isnan(x):
        raise ValueError("q_function argument must not be NaN")
    return 0.5 * math.erfc(x / _SQRT2)


def error_prob_ln_form(
    gamma: float, n: float, bandwidth: float, frame_duration: float, packet_bits: int
) -> float:
    """Natural-log form of the error probability behind the reliability bound.

    The same quantity as the base-2 ``packet_error_prob`` of
    ``tests/oracles.py``, in natural logarithms.
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


def max_snr_proxy(cfg: SystemConfig, power: float | None = None) -> float:
    """Best-case SINR: the lone active device directly beneath the UAV.

    Noise-limited link at horizontal distance zero, sending ``power`` (W)
    per packet, by default the equal-split per-packet power
    :meth:`SystemConfig.mean_packet_power`.  Raises ``OverflowError`` when
    it leaves double range.
    """
    if power is None:
        power = cfg.mean_packet_power()
    gamma = power * cfg.path_gain(0.0) / cfg.channel.noise_power
    if math.isinf(gamma):
        raise OverflowError("the best-case SNR exceeds double range")
    return gamma
