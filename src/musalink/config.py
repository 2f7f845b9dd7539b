"""System configuration: scenario parameters, validation and plain-text I/O.

All quantities are stored in SI base units (meters, seconds, Hz, watts,
linear power ratios).  The plain-text config format accepts explicit
``dB`` / ``dBm`` suffixes on the fields where those units are customary;
the canonical serialization always emits base units so that a
load/serialize round trip is exact.

:class:`TrafficParams` states the packet-count law: one packet per
device and frame outside an emergency, Poisson(lambda) inside one.

Feasibility constraints checked by :func:`validate_config`:

  C4  lambda_min <= lambda          (emergency scenario only)
  C5  lambda <= lambda_max          (emergency scenario only)
  C6  min_radius <= cell_radius

plus the bounds that each key's row of the config-key table states
(the same bounds limit the command-line lists that set the key), an
epsilon_max below 0.5 and a code pool of at most 4^n_subcarriers codes.

The module imports only numpy.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "Scenario",
    "Scheme",
    "GeometryParams",
    "ChannelParams",
    "TrafficParams",
    "FrameParams",
    "PowerPolicy",
    "ReliabilityParams",
    "SystemConfig",
    "ConfigError",
    "db_to_linear",
    "dbm_to_watts",
    "default_config",
    "load_config",
    "with_values",
    "serialize_config",
    "validate_config",
    "ensure_valid",
    "key_domain",
    "reads_key",
    "parse_whole",
]


# ----------------------------------------------------------------------------
#  Unit conversions
# ----------------------------------------------------------------------------

def db_to_linear(value_db: float) -> float:
    """Power ratio in dB -> linear ratio."""
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    """Power in dBm -> watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


class Scenario(Enum):
    NON_EMERGENCY = "non_emergency"
    EMERGENCY = "emergency"


class Scheme(Enum):
    """Transmission schemes, each a fixed (slot rule, power rule) pair.

    PROPOSED runs at the adaptive slot count in an emergency, every other
    scheme at the configured one.  PROPOSED and BASELINE send each packet
    at the equal split ``p_max / rho_max_proxy()``, TPDS at ``p_max`` over
    the device's own packet count, NAS at ``p_max``.  BASELINE is the
    system the analytical model describes.  The rules are
    ``optimizer.scheme_slots`` and :meth:`SystemConfig.packet_power`.
    """
    PROPOSED = "proposed"
    TPDS = "tpds"
    NAS = "nas"
    BASELINE = "baseline"


# ----------------------------------------------------------------------------
#  Parameter groups
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryParams:
    """UAV serving-zone geometry."""
    cell_radius: float = 50.0      # m, radius of the serving disk
    uav_altitude: float = 125.0    # m, hover altitude
    min_radius: float = 10.0       # m, smallest admissible serving radius (C6)


@dataclass(frozen=True)
class ChannelParams:
    """Ground-to-air pathloss and noise model."""
    pathloss_coeff: float = 1.0    # linear attenuation coefficient (0 dB)
    pathloss_exp: float = 2.2      # pathloss exponent
    noise_power: float = 1e-13     # W (-100 dBm)
    bandwidth: float = 5e6         # Hz


@dataclass(frozen=True)
class TrafficParams:
    """Per-frame traffic model of the active devices.

    The packet-count law L of an active device in a frame: one packet
    outside an emergency, Poisson(lam) inside one, with no truncated tail.
    The analytics and the simulator read L only through the methods below:
    the draw and its mean, and the slot occupancy and quantile, which both
    read the one pmf of :meth:`_law`.
    """
    n_active: int = 10             # devices active in the frame
    lam: float = 4.0               # mean packets per active device
    lambda_min: float = 2.0        # C4 lower bound on lam (emergency)
    lambda_max: float = 10.0       # C5 upper bound on lam (emergency)
    scenario: Scenario = Scenario.EMERGENCY

    def packet_counts(self, rng: np.random.Generator, n_frames: int) -> np.ndarray:
        """Each active device's L in ``n_frames`` frames, an (n_frames, n_active)
        array drawn from ``rng`` in one call; no draw outside an emergency."""
        shape = (n_frames, self.n_active)
        if self.scenario is Scenario.NON_EMERGENCY:
            return np.ones(shape, dtype=np.int64)
        return rng.poisson(self.lam, shape)

    def mean_packets(self) -> float:
        """E[L], the mean packet load of an active device."""
        return 1.0 if self.scenario is Scenario.NON_EMERGENCY else self.lam

    def _law(self) -> tuple[int, np.ndarray]:
        """L's pmf on a finite window, as (lo, w) with P(L = lo + i) = w[i]/sum(w);
        w is a fresh array that the caller may overwrite."""
        if self.scenario is Scenario.NON_EMERGENCY:
            return 1, np.ones(1)
        return _poisson_window(self.lam)

    def slot_occupancy(self, n_slots: int) -> float:
        """P(a device transmits in a given slot) = E[min(L, S)]/S, S = ``n_slots``.

        A device with L packets sends them in min(L, S) distinct slots of
        the S, so it occupies a given slot with probability min(L, S)/S.
        The mean is summed over L's law, clipped to 1.  The counts are
        floats, so an S beyond int64 is read, and S divides last: 1/S
        exactly outside an emergency.
        """
        lo, w = self._law()
        mins = np.minimum(np.arange(lo, lo + w.size, dtype=float), float(n_slots))
        return min(1.0, float((mins * w).sum()) / float(w.sum()) / n_slots)

    def quantile(self, q: float) -> int:
        """Smallest l with P(L <= l) >= q, for 0 < q < 1."""
        lo, w = self._law()
        # the ufunc's own accumulate: np.cumsum adds microseconds of dispatch
        cdf = np.add.accumulate(w, out=w)
        return lo + int(cdf.searchsorted(q * cdf.item(-1)))


@dataclass(frozen=True)
class FrameParams:
    """Transmission frame structure."""
    frame_duration: float = 1e-3   # s, also the latency bound
    n_slots: int = 20              # time slots per frame
    packet_bits: int = 200         # payload bits per packet
    n_subcarriers: int = 4         # spreading-code length J
    code_pool_size: int = 64       # number of distinct spreading codes


# quantile of the packet-count law L that stands in for the per-frame
# maximum packet count rho_max in the equal power split
RHO_MAX_QUANTILE = 0.99


@dataclass(frozen=True)
class PowerPolicy:
    """Per-device power budget.

    Which rule splits the budget over a device's packets is fixed by the
    transmission scheme (:meth:`SystemConfig.packet_power`).  The equal
    split of :meth:`SystemConfig.mean_packet_power` divides it by the
    :data:`RHO_MAX_QUANTILE` quantile of the packet-count law.
    """
    p_max: float = 0.01            # W (10 dBm), per-device power budget


@dataclass(frozen=True)
class ReliabilityParams:
    """Decoding threshold and short-packet reliability targets."""
    sinr_threshold: float = 1.0    # linear SINR threshold (0 dB)
    epsilon_max: float = 1e-5      # max short-packet error probability (C3)


@dataclass(frozen=True)
class SystemConfig:
    """Complete scenario parameterization shared by all modules."""
    geometry: GeometryParams = field(default_factory=GeometryParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    traffic: TrafficParams = field(default_factory=TrafficParams)
    frame: FrameParams = field(default_factory=FrameParams)
    power: PowerPolicy = field(default_factory=PowerPolicy)
    reliability: ReliabilityParams = field(default_factory=ReliabilityParams)
    delta_slack: float = 0.0       # slack added to the traffic slot bound (C1)

    def active_intensity(self) -> float:
        """Spatial intensity of frame-active devices (devices / m^2)."""
        r = self.geometry.cell_radius
        return self.traffic.n_active / (math.pi * r * r)

    def path_gain(self, radii):
        """Large-scale linear power gain at horizontal distances ``radii`` (m)."""
        h2 = self.geometry.uav_altitude**2
        exponent = -0.5 * self.channel.pathloss_exp
        return self.channel.pathloss_coeff * (radii**2 + h2) ** exponent

    def rho_max_proxy(self) -> int:
        """Deterministic stand-in for the per-frame maximum packet count:
        the :data:`RHO_MAX_QUANTILE` quantile of L, never below 1."""
        return max(1, self.traffic.quantile(RHO_MAX_QUANTILE))

    def mean_packet_power(self) -> float:
        """Equal-split per-packet power: the budget over the rho_max proxy (W).

        The one definition read by the analytics, the SNR proxy and the
        PROPOSED and BASELINE schemes of :meth:`packet_power`.
        """
        return self.power.p_max / self.rho_max_proxy()

    def packet_power(self, scheme: Scheme, counts: np.ndarray) -> np.ndarray:
        """Per-packet power (W), by ``scheme``'s rule (see :class:`Scheme`), of
        devices holding ``counts`` packets; 0 for a silent TPDS device."""
        p_max = self.power.p_max
        if scheme is Scheme.NAS:
            return np.full(counts.shape, p_max)
        if scheme is Scheme.TPDS:
            return np.where(counts > 0, p_max / np.maximum(counts, 1), 0.0)
        return np.full(counts.shape, self.mean_packet_power())

    def traffic_slot_bound(self) -> float:
        """Upper bound on the slot count from the traffic load (C1)."""
        return self.traffic.n_active * self.traffic.lam + self.delta_slack


def _poisson_window(lam: float) -> tuple[int, np.ndarray]:
    """The Poisson(lam) pmf over the window lo..hi, up to one factor, as (lo, w).

    The window is lo = max(0, floor(lam - t)), hi = ceil(lam + t) with
    t = 10*sqrt(lam) + 10, and w the pmf relative to pmf(lo): the running
    product of lam/k.  Starting at pmf(lo) rather than exp(-lam) = pmf(0)
    avoids the underflow past lam ~ 745, and the cost is O(sqrt(lam)),
    not O(lam).  The window is exact to double precision: with
    h(u) = (1+u) log(1+u) - u, the tails P(L >= lam + t) <=
    exp(-lam*h(t/lam)) and P(L <= lam - t) <= exp(-t^2/(2 lam)) hold at
    most exp(-42.7) < 3e-19 of the mass at every lam, far below the
    rounding of any sum over w.  At lam = 0 it is the point mass at 0.
    ``lam`` must lie in the domain of ``traffic.lambda``, [0, 1e8], and
    ``ValueError`` is raised outside it (NaN included): an array of
    ~20*sqrt(lam) doubles is built per call.
    """
    top = key_domain("traffic.lambda")[2]
    if not 0.0 <= lam <= top:
        raise ValueError(f"Poisson window needs 0 <= lambda <= {top:g}, got {lam!r}")
    if lam == 0.0:
        return 0, np.ones(1)
    spread = 10.0 * math.sqrt(lam) + 10.0
    lo = max(0, math.floor(lam - spread))
    w = np.arange(lo, math.ceil(lam + spread) + 1.0)
    w[0] = lam  # pmf(lo)/pmf(lo) = 1 heads the running product
    # the ufunc's own accumulate: np.cumprod adds microseconds of dispatch
    return lo, np.multiply.accumulate(np.divide(lam, w, out=w), out=w)


def default_config() -> SystemConfig:
    """The documented default configuration."""
    return SystemConfig()


# ----------------------------------------------------------------------------
#  Config keys and validation
# ----------------------------------------------------------------------------

# key -> (section attr, field attr, value kind, lower bound, upper bound);
# the one statement of each key, read by the file parser, the serializer,
# validate_config and the command-line lists.
# kinds: float, int (a finite whole number: 10, 10.0 and 1e1 are all 10),
# watts (dBm suffix accepted), ratio (dB suffix accepted), scenario.
# lower bound: (">", x) or (">=", x) on the value in base units, or None.
# upper bound: x for "<= x", or None.  Lambda's is the domain of the
# Poisson window, whose cost grows as sqrt(lambda); an int key's is the
# range of the simulator's int64 arrays, stated as an exact int.
_Bound = tuple[str, float] | None
_KEY_TABLE: dict[str, tuple[str | None, str, str, _Bound, float | None]] = {
    "geometry.cell_radius": ("geometry", "cell_radius", "float", (">", 0.0), None),
    "geometry.uav_altitude": ("geometry", "uav_altitude", "float", (">", 0.0), None),
    "geometry.min_radius": ("geometry", "min_radius", "float", None, None),
    "channel.pathloss_coeff": ("channel", "pathloss_coeff", "ratio", (">", 0.0), None),
    "channel.pathloss_exp": ("channel", "pathloss_exp", "float", (">=", 2.0), None),
    "channel.noise_power": ("channel", "noise_power", "watts", (">", 0.0), None),
    "channel.bandwidth": ("channel", "bandwidth", "float", (">", 0.0), None),
    "traffic.n_active": ("traffic", "n_active", "int", (">=", 1), 2**63 - 1),
    "traffic.lambda": ("traffic", "lam", "float", (">=", 0.0), 1e8),
    "traffic.lambda_min": ("traffic", "lambda_min", "float", None, None),
    "traffic.lambda_max": ("traffic", "lambda_max", "float", None, None),
    "traffic.scenario": ("traffic", "scenario", "scenario", None, None),
    "frame.frame_duration": ("frame", "frame_duration", "float", (">", 0.0), None),
    "frame.n_slots": ("frame", "n_slots", "int", (">=", 1), 2**63 - 1),
    "frame.packet_bits": ("frame", "packet_bits", "int", (">=", 1), 2**63 - 1),
    "frame.n_subcarriers": ("frame", "n_subcarriers", "int", (">=", 1), 2**63 - 1),
    "frame.code_pool_size": ("frame", "code_pool_size", "int", (">=", 2), 2**63 - 1),
    "power.p_max": ("power", "p_max", "watts", (">", 0.0), None),
    "reliability.sinr_threshold": ("reliability", "sinr_threshold", "ratio", (">", 0.0), None),
    "reliability.epsilon_max": ("reliability", "epsilon_max", "float", (">", 0.0), None),
    "delta_slack": (None, "delta_slack", "float", (">=", 0.0), None),
}


# scenario -> the keys of _KEY_TABLE that no number depends on in it.
# Outside an emergency every device sends one packet, so nothing reads the
# traffic rate, its C4/C5 bounds or the C1 slack of the adaptive slot
# count, which applies only in an emergency.
_IGNORED_KEYS: dict[Scenario, frozenset[str]] = {
    Scenario.EMERGENCY: frozenset(),
    Scenario.NON_EMERGENCY: frozenset(
        {"traffic.lambda", "traffic.lambda_min", "traffic.lambda_max", "delta_slack"}
    ),
}


def key_domain(key: str) -> tuple[str, _Bound, float | None]:
    """Config ``key``'s value kind, lower bound and upper bound, as its table
    row states them."""
    return _KEY_TABLE[key][2:]


def reads_key(cfg: SystemConfig, key: str) -> bool:
    """Whether any number computed from ``cfg`` depends on config ``key``'s value."""
    return key not in _IGNORED_KEYS[cfg.traffic.scenario]


def _field(cfg: SystemConfig, section: str | None, attr: str):
    return getattr(cfg if section is None else getattr(cfg, section), attr)


def validate_config(cfg: SystemConfig) -> list[str]:
    """Collect every violated bound and feasibility constraint.

    The per-key checks of ``_KEY_TABLE`` come first, in table order: an
    ``int`` key must hold a Python or numpy integer (not 10.0), and NaN
    breaks every bound.  Then come the checks that span fields or that
    the table cannot state: at most 4^n_subcarriers codes, epsilon_max
    below 0.5, and C4-C6 (C4/C5 in the emergency scenario only).  Returns an
    empty list iff the configuration is feasible.
    """
    issues = []
    for key, (section, attr, kind, bound, most) in _KEY_TABLE.items():
        value = _field(cfg, section, attr)
        name = key.replace(".", ": ")
        if kind == "int" and not isinstance(value, numbers.Integral):
            issues.append(f"{name} must be an integer")
        if bound is not None:
            op, least = bound
            if not (value > least if op == ">" else value >= least):
                issues.append(f"{name} must be {op} {least:g}")
        if most is not None and not value <= most:
            issues.append(f"{name} must be <= {most:g}")
    j, pool = cfg.frame.n_subcarriers, cfg.frame.code_pool_size
    # 4^j < pool as pool - 1 >= 2^(2j); a non-integer is reported above
    if (isinstance(j, numbers.Integral) and isinstance(pool, numbers.Integral)
            and pool > 0 and int(pool - 1).bit_length() > 2 * int(j)):
        issues.append(
            "frame: code_pool_size exceeds the 4^n_subcarriers distinct "
            "quaternary spreading codes"
        )
    if not cfg.reliability.epsilon_max < 0.5:
        issues.append("reliability: epsilon_max must lie in (0, 0.5)")
    t = cfg.traffic
    if t.scenario is Scenario.EMERGENCY:
        if t.lam < t.lambda_min:
            issues.append(f"C4: lambda ({t.lam:g}) below lambda_min ({t.lambda_min:g})")
        if t.lam > t.lambda_max:
            issues.append(f"C5: lambda ({t.lam:g}) exceeds lambda_max ({t.lambda_max:g})")
    g = cfg.geometry
    if g.cell_radius < g.min_radius:
        issues.append(f"C6: cell_radius ({g.cell_radius:g}) below min_radius ({g.min_radius:g})")
    return issues


def ensure_valid(cfg: SystemConfig) -> SystemConfig:
    """Raise :class:`ConfigError` listing all violations, else return cfg."""
    issues = validate_config(cfg)
    if issues:
        raise ConfigError("; ".join(issues))
    return cfg


# ----------------------------------------------------------------------------
#  Plain-text config format
# ----------------------------------------------------------------------------

class ConfigError(ValueError):
    """Malformed or infeasible configuration document."""


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw.strip()!r}")
    return value


def parse_whole(raw: str) -> int:
    """A finite whole number: 10, 10.0 and 1e1 are all 10.

    An integer literal is read exactly, however many digits it has; any
    other spelling is read as a float.  Raises ``ValueError`` otherwise.
    The one rule of the config file's ``int`` keys and the command line's
    counts.
    """
    try:
        return int(raw)
    except ValueError:
        pass
    value = _finite(raw)
    if not value.is_integer():
        raise ValueError(f"not a whole number {raw!r}")
    return int(value)


def _parse_value(kind: str, raw: str, key: str, lineno: int):
    raw = raw.strip()
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            return parse_whole(raw)
        if kind == "watts":
            if raw.lower().endswith("dbm"):
                return dbm_to_watts(_finite(raw[:-3]))
            return _finite(raw)
        if kind == "ratio":
            if raw.lower().endswith("db"):
                return db_to_linear(_finite(raw[:-2]))
            return _finite(raw)
        if kind == "scenario":
            return Scenario(raw.lower())
    except (ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    raise AssertionError(f"unknown kind {kind}")


def load_config(source) -> SystemConfig:
    """Parse a key=value config document and validate the result.

    ``source`` may be a text string, a bytes object, or a readable stream.
    Omitted keys take the documented defaults; an empty document yields the
    default configuration.  One leading byte-order mark is ignored.
    Raises :class:`ConfigError` on bytes that are not UTF-8, on parse
    problems (with line context) and on feasibility violations (naming
    the constraint).
    """
    text = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: {exc}") from None
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write

    values: dict[str, object] = {}
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.lower()
        if key not in _KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(_KEY_TABLE[key][2], raw, key, lineno)

    return ensure_valid(with_values(default_config(), values))


def with_values(cfg: SystemConfig, values: dict[str, object]) -> SystemConfig:
    """``cfg`` with each config-file key in ``values`` set to its value.

    Values are stored as given, so each must already have its field's type
    (an ``int`` for ``traffic.n_active``); the result is not validated.
    """
    sections: dict[str | None, dict[str, object]] = {}
    for key, value in values.items():
        section, attr = _KEY_TABLE[key][:2]
        sections.setdefault(section, {})[attr] = value
    fields = sections.pop(None, {})
    fields.update((s, replace(getattr(cfg, s), **kw)) for s, kw in sections.items())
    return replace(cfg, **fields)


def _format_value(kind: str, value) -> str:
    if kind in ("float", "watts", "ratio"):
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    return value.value  # scenario


def serialize_config(cfg: SystemConfig) -> str:
    """Canonical serialization; ``load_config`` of the result is identity.

    Base units only (watts, linear ratios) with full float precision.
    """
    lines = ["# musalink configuration (SI base units)"]
    for key, (section, attr, kind, *_) in _KEY_TABLE.items():
        lines.append(f"{key} = {_format_value(kind, _field(cfg, section, attr))}")
    return "\n".join(lines) + "\n"
