"""Network, spectrum, and incumbent domain types plus scenario construction.

Conventions: SAP ids are 0-based row indices into the position arrays; all
distances in meters, frequencies in Hz, powers in dBm unless suffixed
otherwise. The neighborhood of SAP k contains every SAP within
``neighbor_radius`` meters, including k itself.
"""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .seeding import substream


class ConfigurationError(ValueError):
    """Raised for infeasible or inconsistent scenario configuration."""


def check_integer(name, value, minimum=None):
    """``value`` as an int; raise unless it is an integer >= ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{name} must be an integer{bound}")
    return int(value)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Topology:
    """SAP positions plus the radius-R neighborhood structure.

    ``adjacency[k, j]`` is True iff j is within ``neighbor_radius`` of k;
    it is symmetric and has a True diagonal (each SAP is its own neighbor).
    """

    positions: np.ndarray          # (K, 2) float
    heights_m: np.ndarray          # (K,) float
    neighbor_radius_m: float
    adjacency: np.ndarray = field(repr=False)  # (K, K) bool

    @property
    def count(self):
        return self.positions.shape[0]

    def bounding_box(self):
        lo = self.positions.min(axis=0)
        hi = self.positions.max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def _finalize_topology(positions, radius_m, height_m):
    positions = np.asarray(positions, dtype=float)
    k = positions.shape[0]
    heights = np.full(k, float(height_m))
    if not 0 < height_m < math.inf:
        raise ConfigurationError("SAP height must be finite and positive")
    if not radius_m >= 0:
        raise ConfigurationError("neighbor radius must be >= 0")
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    adjacency = dist <= radius_m + 1e-9  # tolerate fp rounding at exactly R
    positions.setflags(write=False)
    heights.setflags(write=False)
    adjacency.setflags(write=False)
    return Topology(positions, heights, float(radius_m), adjacency)


def build_grid_topology(side_count, spacing_m, radius_m, height_m):
    """Square lattice of side_count x side_count SAPs with the given spacing."""
    side_count = check_integer("side_count", side_count, 1)
    if not 0 < spacing_m < math.inf:
        raise ConfigurationError("spacing_m must be finite and positive")
    xs = np.arange(side_count) * spacing_m
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    positions = np.column_stack([gx.ravel(), gy.ravel()])
    return _finalize_topology(positions, radius_m, height_m)


def build_random_topology(count, region_m, radius_m, height_m, rng):
    """``count`` SAPs placed i.i.d. uniform over a ``(width, height)`` region."""
    count = check_integer("count", count, 1)
    width, depth = region_m
    if not (0 < width < math.inf and 0 < depth < math.inf):
        raise ConfigurationError("region_m must be finite and positive")
    positions = rng.uniform(0.0, 1.0, size=(count, 2)) * np.array([width, depth])
    return _finalize_topology(positions, radius_m, height_m)


# ---------------------------------------------------------------------------
# Spectrum plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumPlan:
    """Channelization of a wideband spectrum into channels and sensed subsets.

    M = floor(B / b) narrowband channels; consecutive runs of
    ``channels_per_sap`` channels form L = floor(B / (p * b)) subsets, with
    residual channels appended to the last subset. ``quota[l]`` is the number
    of SAPs that must sense subset l.
    """

    total_bandwidth_hz: float
    channel_bandwidth_hz: float
    channels_per_sap: int
    center_frequency_hz: float
    channel_count: int
    subset_count: int
    subset_of_channel: np.ndarray = field(repr=False)  # (M,) int
    quota: tuple | None = None

    @property
    def channel_centers_hz(self):
        """Center frequency of each channel; channels packed from the band edge."""
        lo = self.center_frequency_hz - self.total_bandwidth_hz / 2.0
        m = np.arange(self.channel_count)
        return lo + (m + 0.5) * self.channel_bandwidth_hz

    def with_quota(self, quota):
        quota = tuple(check_integer("quota entry", q, 0) for q in quota)
        if len(quota) != self.subset_count:
            raise ConfigurationError("quota length must equal subset count")
        return SpectrumPlan(
            self.total_bandwidth_hz, self.channel_bandwidth_hz,
            self.channels_per_sap, self.center_frequency_hz,
            self.channel_count, self.subset_count,
            self.subset_of_channel, quota,
        )


def uniform_quota(subset_count, sap_count):
    """Near-uniform integer split of sap_count over subset_count subsets.

    Exact K/L when L divides K; otherwise the first K mod L subsets take one
    extra SAP so the quotas always sum to K.
    """
    base, extra = divmod(sap_count, subset_count)
    return tuple(base + (1 if l < extra else 0) for l in range(subset_count))


def build_spectrum_plan(total_bandwidth_hz, channel_bandwidth_hz, channels_per_sap=1,
                        quota=None, center_frequency_hz=5.43e9):
    """Build the channel/subset plan; quota optional until a SAP count is known.

    ``quota`` gives per-subset SAP counts, as ``SpectrumPlan.with_quota``
    does later (e.g. with ``uniform_quota`` once K is known).
    """
    if not 0 < channel_bandwidth_hz <= total_bandwidth_hz < math.inf:
        raise ConfigurationError("need 0 < b <= B < inf")
    if not 0 < center_frequency_hz < math.inf:
        raise ConfigurationError("center frequency must be finite and positive")
    channels_per_sap = check_integer("channels_per_sap", channels_per_sap, 1)
    m_count = int(total_bandwidth_hz // channel_bandwidth_hz)
    l_count = int(total_bandwidth_hz // (channels_per_sap * channel_bandwidth_hz))
    if l_count < 1:
        raise ConfigurationError("subset width exceeds total bandwidth")
    subset_of_channel = np.minimum(np.arange(m_count) // channels_per_sap,
                                   l_count - 1)
    subset_of_channel.setflags(write=False)
    plan = SpectrumPlan(
        float(total_bandwidth_hz), float(channel_bandwidth_hz),
        channels_per_sap, float(center_frequency_hz),
        m_count, l_count, subset_of_channel, None,
    )
    return plan if quota is None else plan.with_quota(quota)


def check_quota_feasible(plan, sap_count):
    if plan.quota is None:
        raise ConfigurationError("spectrum plan has no quota")
    if sum(plan.quota) != sap_count:
        raise ConfigurationError(
            f"quota sums to {sum(plan.quota)} but there are {sap_count} SAPs")


# ---------------------------------------------------------------------------
# Incumbents and scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Incumbent:
    """One interfering transmitter (a WiFi AP in the evaluation set-ups).

    ``signal_center_hz=None`` means the occupied band is redrawn every
    realization; ``signal_bandwidth_hz`` may then be a single width or a
    tuple of widths to draw from uniformly.
    """

    position: tuple                 # (x, y) meters
    height_m: float
    tx_power_dbm: float
    signal_bandwidth_hz: float | tuple
    signal_center_hz: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.tx_power_dbm):
            raise ConfigurationError("incumbent tx power must be finite")
        if not (len(self.position) == 2 and math.isfinite(self.position[0])
                and math.isfinite(self.position[1])):
            raise ConfigurationError(
                "incumbent position must be two finite coordinates")
        if not 0 < self.height_m < math.inf:
            raise ConfigurationError(
                "incumbent height must be finite and positive")
        widths = self.signal_bandwidth_hz
        if not isinstance(widths, tuple):
            widths = (widths,)
        if not widths or not all(0 < w < math.inf for w in widths):
            raise ConfigurationError(
                "incumbent signal bandwidths must be finite and positive")


@dataclass(frozen=True)
class Scenario:
    """Immutable, seed-deterministic description of one simulated world."""

    topology: Topology
    spectrum: SpectrumPlan
    incumbents: tuple
    propagation: "PropagationParams"
    seed: int


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario):
    topo = scenario.topology
    prop = scenario.propagation
    return {
        "topology": {
            "kind": "explicit",
            "positions": [[float(x), float(y)] for x, y in topo.positions],
            "radius_m": topo.neighbor_radius_m,
            "height_m": float(topo.heights_m[0]),
        },
        "spectrum": {
            "B_hz": scenario.spectrum.total_bandwidth_hz,
            "b_hz": scenario.spectrum.channel_bandwidth_hz,
            "p": scenario.spectrum.channels_per_sap,
            "center_hz": scenario.spectrum.center_frequency_hz,
            "quota": list(scenario.spectrum.quota) if scenario.spectrum.quota else None,
        },
        "incumbents": [
            {
                "position": [float(inc.position[0]), float(inc.position[1])],
                "height_m": inc.height_m,
                "tx_power_dbm": inc.tx_power_dbm,
                "signal_bandwidth_hz": (list(inc.signal_bandwidth_hz)
                                        if isinstance(inc.signal_bandwidth_hz, tuple)
                                        else inc.signal_bandwidth_hz),
                "signal_center_hz": inc.signal_center_hz,
            }
            for inc in scenario.incumbents
        ],
        "propagation": asdict(prop),
        "seed": scenario.seed,
    }


def scenario_from_dict(spec):
    from .propagation import PropagationParams

    topo_spec = dict(spec["topology"])
    kind = topo_spec.pop("kind", "explicit")
    seed = check_integer("seed", spec["seed"])
    if kind == "grid":
        topology = build_grid_topology(
            topo_spec["side_count"], topo_spec["spacing_m"],
            topo_spec["radius_m"], topo_spec["height_m"])
    elif kind == "random":
        topology = build_random_topology(
            topo_spec["count"], tuple(topo_spec["region_m"]),
            topo_spec["radius_m"], topo_spec["height_m"],
            substream(seed, "sap-placement"))
    elif kind == "explicit":
        topology = _finalize_topology(
            topo_spec["positions"], topo_spec["radius_m"], topo_spec["height_m"])
    else:
        raise ConfigurationError(f"unknown topology kind {kind!r}")

    sp = spec["spectrum"]
    plan = build_spectrum_plan(
        sp["B_hz"], sp["b_hz"], sp.get("p", 1),
        quota=sp.get("quota"),
        center_frequency_hz=sp.get("center_hz", 5.43e9),
    )
    if plan.quota is None:
        plan = plan.with_quota(uniform_quota(plan.subset_count, topology.count))
    check_quota_feasible(plan, topology.count)

    incumbents = tuple(
        Incumbent(
            position=tuple(item["position"]),
            height_m=item["height_m"],
            tx_power_dbm=item["tx_power_dbm"],
            signal_bandwidth_hz=(tuple(item["signal_bandwidth_hz"])
                                 if isinstance(item["signal_bandwidth_hz"], list)
                                 else item["signal_bandwidth_hz"]),
            signal_center_hz=item.get("signal_center_hz"),
        )
        for item in spec["incumbents"]
    )
    propagation = PropagationParams(**spec["propagation"])
    return Scenario(topology, plan, incumbents, propagation, seed)


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
