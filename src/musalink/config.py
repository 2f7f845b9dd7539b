"""System configuration: scenario parameters, validation and plain-text I/O.

All quantities are stored in SI base units (meters, seconds, Hz, watts,
linear power ratios).  The plain-text config format accepts explicit
``dB`` / ``dBm`` suffixes on the fields where those units are customary;
the canonical serialization always emits base units so that a
load/serialize round trip is exact.

Feasibility constraints checked by :func:`validate_config`:

  C4  lambda_min <= lambda          (emergency scenario only)
  C5  lambda <= lambda_max          (emergency scenario only)
  C6  min_radius <= cell_radius

plus the structural invariants of every parameter group.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum

from scipy.special import pdtr, pdtrik

__all__ = [
    "Scenario",
    "GeometryParams",
    "ChannelParams",
    "TrafficParams",
    "FrameParams",
    "PowerPolicy",
    "ReliabilityParams",
    "SystemConfig",
    "ConfigError",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "default_config",
    "load_config",
    "with_values",
    "serialize_config",
    "validate_config",
    "ensure_valid",
]


# ----------------------------------------------------------------------------
#  Unit conversions
# ----------------------------------------------------------------------------

def db_to_linear(value_db: float) -> float:
    """Power ratio in dB -> linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power ratio -> dB."""
    if value <= 0:
        raise ValueError("dB conversion requires a positive ratio")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    """Power in dBm -> watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def watts_to_dbm(value_w: float) -> float:
    """Power in watts -> dBm."""
    if value_w <= 0:
        raise ValueError("dBm conversion requires a positive power")
    return 10.0 * math.log10(value_w) + 30.0


class Scenario(Enum):
    NON_EMERGENCY = "non_emergency"
    EMERGENCY = "emergency"


# ----------------------------------------------------------------------------
#  Parameter groups
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryParams:
    """UAV serving-zone geometry."""
    cell_radius: float = 50.0      # m, radius of the serving disk
    uav_altitude: float = 125.0    # m, hover altitude
    min_radius: float = 10.0       # m, smallest admissible serving radius (C6)

    def invariant_violations(self) -> list[str]:
        out = []
        if not self.cell_radius > 0:
            out.append("geometry: cell_radius must be > 0")
        if not self.uav_altitude > 0:
            out.append("geometry: uav_altitude must be > 0")
        return out


@dataclass(frozen=True)
class ChannelParams:
    """Ground-to-air pathloss and noise model."""
    pathloss_coeff: float = 1.0    # linear attenuation coefficient (0 dB)
    pathloss_exp: float = 2.2      # pathloss exponent
    noise_power: float = 1e-13     # W (-100 dBm)
    bandwidth: float = 5e6         # Hz

    def invariant_violations(self) -> list[str]:
        out = []
        if not self.pathloss_coeff > 0:
            out.append("channel: pathloss_coeff must be > 0")
        if not self.pathloss_exp >= 2:
            out.append("channel: pathloss_exp must be >= 2")
        if not self.noise_power > 0:
            out.append("channel: noise_power must be > 0")
        if not self.bandwidth > 0:
            out.append("channel: bandwidth must be > 0")
        return out


@dataclass(frozen=True)
class TrafficParams:
    """Per-frame traffic model of the active devices.

    In the non-emergency scenario every active device carries exactly one
    packet; in the emergency scenario per-device packet counts are
    Poisson(lam), with no truncation of the Poisson tail in the analytics
    or the simulator.
    """
    n_active: int = 10             # devices active in the frame
    lam: float = 4.0               # mean packets per active device
    lambda_min: float = 2.0        # C4 lower bound on lam (emergency)
    lambda_max: float = 10.0       # C5 upper bound on lam (emergency)
    scenario: Scenario = Scenario.EMERGENCY

    def invariant_violations(self) -> list[str]:
        out = []
        if self.n_active < 1:
            out.append("traffic: n_active must be a positive integer")
        if self.lam < 0:
            out.append("traffic: lambda must be >= 0")
        return out


@dataclass(frozen=True)
class FrameParams:
    """Transmission frame structure."""
    frame_duration: float = 1e-3   # s, also the latency bound
    n_slots: int = 20              # time slots per frame
    packet_bits: int = 200         # payload bits per packet
    n_subcarriers: int = 4         # spreading-code length J
    code_pool_size: int = 64       # number of distinct spreading codes

    def invariant_violations(self) -> list[str]:
        out = []
        if self.frame_duration <= 0:
            out.append("frame: frame_duration must be > 0")
        if self.n_slots < 1:
            out.append("frame: n_slots must be >= 1")
        if self.packet_bits < 1:
            out.append("frame: packet_bits must be a positive integer")
        if self.n_subcarriers < 1:
            out.append("frame: n_subcarriers must be >= 1")
        if self.code_pool_size < 2:
            out.append("frame: code_pool_size must be >= 2")
        if 4 ** self.n_subcarriers < self.code_pool_size:
            out.append(
                "frame: code_pool_size exceeds the 4^n_subcarriers distinct "
                "quaternary spreading codes"
            )
        return out


# Poisson quantile of lambda that stands in for the per-frame maximum
# packet count rho_max in the equal power split
RHO_MAX_QUANTILE = 0.99


@dataclass(frozen=True)
class PowerPolicy:
    """Per-device power budget.

    Which rule splits the budget over a device's packets is fixed by the
    transmission scheme (``simulator.Scheme``).  The equal split of
    :meth:`SystemConfig.mean_packet_power` divides it by the
    :data:`RHO_MAX_QUANTILE` Poisson quantile of the traffic rate.
    """
    p_max: float = 0.01            # W (10 dBm), per-device power budget

    def invariant_violations(self) -> list[str]:
        out = []
        if not self.p_max > 0:
            out.append("power: p_max must be > 0")
        return out


@dataclass(frozen=True)
class ReliabilityParams:
    """Decoding threshold and short-packet reliability targets."""
    sinr_threshold: float = 1.0    # linear SINR threshold (0 dB)
    epsilon_max: float = 1e-5      # max short-packet error probability (C3)

    def invariant_violations(self) -> list[str]:
        out = []
        if not self.sinr_threshold > 0:
            out.append("reliability: sinr_threshold must be > 0")
        if not 0 < self.epsilon_max < 0.5:
            out.append("reliability: epsilon_max must lie in (0, 0.5)")
        return out


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

    def rho_max_proxy(self) -> int:
        """Deterministic stand-in for the per-frame maximum packet count.

        The :data:`RHO_MAX_QUANTILE` Poisson quantile of the traffic rate
        in the emergency scenario, 1 in the non-emergency scenario, never
        below 1.
        """
        if self.traffic.scenario is Scenario.NON_EMERGENCY:
            return 1
        return max(1, _poisson_quantile(RHO_MAX_QUANTILE, self.traffic.lam))

    def mean_packet_power(self) -> float:
        """Equal-split per-packet power: the budget over the rho_max proxy (W).

        The one definition read by the analytics, the SNR proxy and the
        simulator's PROPOSED and BASELINE schemes.
        """
        return self.power.p_max / self.rho_max_proxy()

    def traffic_slot_bound(self) -> float:
        """Upper bound on the slot count from the traffic load (C1)."""
        return self.traffic.n_active * self.traffic.lam + self.delta_slack


def _poisson_quantile(q: float, lam: float) -> int:
    """Smallest k with P(Poisson(lam) <= k) >= q, for 0 < q < 1.

    Inverts the Poisson CDF through its continuous (incomplete-gamma)
    inverse and corrects the rounding by one CDF evaluation.
    """
    k = math.ceil(pdtrik(q, lam))
    below = max(k - 1, 0)
    return below if pdtr(below, lam) >= q else k


def default_config() -> SystemConfig:
    """The documented default configuration."""
    return SystemConfig()


# ----------------------------------------------------------------------------
#  Validation
# ----------------------------------------------------------------------------

def validate_config(cfg: SystemConfig) -> list[str]:
    """Collect every violated feasibility constraint and type invariant.

    Returns an empty list iff the configuration is feasible.  C4/C5 apply
    only in the emergency scenario.
    """
    issues: list[str] = []
    for group in (cfg.geometry, cfg.channel, cfg.traffic, cfg.frame,
                  cfg.power, cfg.reliability):
        issues.extend(group.invariant_violations())
    if cfg.delta_slack < 0:
        issues.append("delta_slack must be >= 0")
    t = cfg.traffic
    if t.scenario is Scenario.EMERGENCY:
        if t.lam < t.lambda_min:
            issues.append(
                f"C4: lambda ({t.lam:g}) below lambda_min ({t.lambda_min:g})"
            )
        if t.lam > t.lambda_max:
            issues.append(
                f"C5: lambda ({t.lam:g}) exceeds lambda_max ({t.lambda_max:g})"
            )
    g = cfg.geometry
    if g.cell_radius < g.min_radius:
        issues.append(
            f"C6: cell_radius ({g.cell_radius:g}) below min_radius "
            f"({g.min_radius:g})"
        )
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


# key -> (section attr, field attr, value kind)
# kinds: float, int, watts (dBm suffix accepted), ratio (dB suffix
# accepted), scenario
_KEY_TABLE: dict[str, tuple[str | None, str, str]] = {
    "geometry.cell_radius": ("geometry", "cell_radius", "float"),
    "geometry.uav_altitude": ("geometry", "uav_altitude", "float"),
    "geometry.min_radius": ("geometry", "min_radius", "float"),
    "channel.pathloss_coeff": ("channel", "pathloss_coeff", "ratio"),
    "channel.pathloss_exp": ("channel", "pathloss_exp", "float"),
    "channel.noise_power": ("channel", "noise_power", "watts"),
    "channel.bandwidth": ("channel", "bandwidth", "float"),
    "traffic.n_active": ("traffic", "n_active", "int"),
    "traffic.lambda": ("traffic", "lam", "float"),
    "traffic.lambda_min": ("traffic", "lambda_min", "float"),
    "traffic.lambda_max": ("traffic", "lambda_max", "float"),
    "traffic.scenario": ("traffic", "scenario", "scenario"),
    "frame.frame_duration": ("frame", "frame_duration", "float"),
    "frame.n_slots": ("frame", "n_slots", "int"),
    "frame.packet_bits": ("frame", "packet_bits", "int"),
    "frame.n_subcarriers": ("frame", "n_subcarriers", "int"),
    "frame.code_pool_size": ("frame", "code_pool_size", "int"),
    "power.p_max": ("power", "p_max", "watts"),
    "reliability.sinr_threshold": ("reliability", "sinr_threshold", "ratio"),
    "reliability.epsilon_max": ("reliability", "epsilon_max", "float"),
    "delta_slack": (None, "delta_slack", "float"),
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw.strip()!r}")
    return value


def _parse_value(kind: str, raw: str, key: str, lineno: int):
    raw = raw.strip()
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            return int(raw)
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
    default configuration.  Raises :class:`ConfigError` on bytes that are
    not UTF-8, on parse problems (with line context) and on feasibility
    violations (naming the constraint).
    """
    text = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: {exc}") from None

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
        _, _, kind = _KEY_TABLE[key]
        values[key] = _parse_value(kind, raw, key, lineno)

    return ensure_valid(with_values(default_config(), values))


def with_values(cfg: SystemConfig, values: dict[str, object]) -> SystemConfig:
    """``cfg`` with each config-file key in ``values`` set to its value.

    Values are stored as given, so each must already have its field's type
    (an ``int`` for ``traffic.n_active``); the result is not validated.
    """
    sections: dict[str | None, dict[str, object]] = {}
    for key, value in values.items():
        section, attr, _ = _KEY_TABLE[key]
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
    for key, (section, attr, kind) in _KEY_TABLE.items():
        holder = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key} = {_format_value(kind, getattr(holder, attr))}")
    return "\n".join(lines) + "\n"
