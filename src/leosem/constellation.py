"""Walker-style constellation geometry and the time-varying connectivity graph.

Satellites fly circular Keplerian orbits around a spherical Earth.  The
inter-satellite topology is the +Grid pattern: each satellite keeps links to
its two intra-plane neighbors and to the same-slot satellites in the two
adjacent planes.  Link availability and quality come from a ChannelModel;
geometry (positions, distances) is pure deterministic math.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MU_EARTH_KM3_S2 = 398600.4418
EARTH_RADIUS_KM = 6371.0

# Fixed port semantics.  Ports that do not exist in degenerate shells
# (single plane, two satellites per plane, ...) are simply absent.
PORT_INTRA_FWD = 0   # same plane, slot + 1
PORT_INTRA_BWD = 1   # same plane, slot - 1
PORT_INTER_FWD = 2   # plane + 1, same slot
PORT_INTER_BWD = 3   # plane - 1, same slot
NUM_PORTS = 4


@dataclass(frozen=True)
class ConstellationConfig:
    num_planes: int = 10
    sats_per_plane: int = 7
    altitude_km: float = 570.0
    inclination_deg: float = 53.0
    phasing_factor: int = 1
    earth_radius_km: float = EARTH_RADIUS_KM
    mu_km3_s2: float = MU_EARTH_KM3_S2

    def __post_init__(self):
        if self.num_planes < 1:
            raise ValueError("num_planes must be >= 1")
        if self.sats_per_plane < 1:
            raise ValueError("sats_per_plane must be >= 1")
        if self.altitude_km <= 0:
            raise ValueError("altitude_km must be > 0")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg must be in [0, 180]")

    @property
    def num_sats(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def orbit_radius_km(self) -> float:
        return self.earth_radius_km + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(self.mu_km3_s2 / self.orbit_radius_km**3)

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_s


@dataclass(frozen=True)
class SatPosition:
    sat_id: int
    xyz: np.ndarray  # ECI, kilometers
    time_s: float


@dataclass(frozen=True)
class Edge:
    """One directed inter-satellite link at a given snapshot time."""
    src: int
    dst: int
    port: int
    distance_km: float
    available: bool
    snr_db: float = math.nan
    rate_bps: float = math.nan


@dataclass
class GraphSnapshot:
    """The constellation graph at one time slot.

    ``edges`` lists every +Grid neighbor pair with its availability flag;
    the active edge set (what routing may use) is the available subset.
    """
    time_s: float
    slot: int
    nodes: list[int]
    edges: list[Edge]
    positions: np.ndarray  # (N, 3) km
    _by_src_port: dict[tuple[int, int], Edge] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._by_src_port:
            self._by_src_port = {(e.src, e.port): e for e in self.edges}

    def available_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.available]

    def edge(self, node: int, port: int) -> Edge | None:
        return self._by_src_port.get((node, port))

    def port_mask(self, node: int) -> np.ndarray:
        """Boolean (NUM_PORTS,) availability mask for a node."""
        mask = np.zeros(NUM_PORTS, dtype=bool)
        for port in range(NUM_PORTS):
            e = self._by_src_port.get((node, port))
            if e is not None and e.available:
                mask[port] = True
        return mask

    def distance_km(self, a: int, b: int) -> float:
        return float(np.linalg.norm(self.positions[a] - self.positions[b]))


class Constellation:
    """Walker shell with a fixed +Grid port table and circular-orbit motion."""

    def __init__(self, cfg: ConstellationConfig):
        self.cfg = cfg
        p, s = cfg.num_planes, cfg.sats_per_plane
        self.plane = np.repeat(np.arange(p), s)
        self.slot = np.tile(np.arange(s), p)
        self._raan = 2.0 * math.pi * self.plane / p
        # Argument of latitude at t=0: in-plane spacing plus Walker phasing.
        self._phase0 = (
            2.0 * math.pi * self.slot / s
            + 2.0 * math.pi * cfg.phasing_factor * self.plane / (p * s)
        )
        self._inc = math.radians(cfg.inclination_deg)
        self.ports = self._build_port_table()
        # Directed edges in fixed (node, port) order; this ordering is the
        # contract the channel model uses for its per-edge state arrays.
        self.edge_index: list[tuple[int, int, int]] = [
            (node, dst, port)
            for node in range(cfg.num_sats)
            for port, dst in sorted(self.ports[node].items())
        ]

    def _build_port_table(self) -> list[dict[int, int]]:
        cfg = self.cfg
        p, s = cfg.num_planes, cfg.sats_per_plane
        table: list[dict[int, int]] = []
        for node in range(cfg.num_sats):
            pl, sl = divmod(node, s)
            ports: dict[int, int] = {}
            if s >= 2:
                ports[PORT_INTRA_FWD] = pl * s + (sl + 1) % s
                if s >= 3:
                    ports[PORT_INTRA_BWD] = pl * s + (sl - 1) % s
            if p >= 2:
                ports[PORT_INTER_FWD] = ((pl + 1) % p) * s + sl
                if p >= 3:
                    ports[PORT_INTER_BWD] = ((pl - 1) % p) * s + sl
            table.append(ports)
        return table

    def node_id(self, plane: int, slot: int) -> int:
        return plane * self.cfg.sats_per_plane + slot

    def plane_slot(self, node: int) -> tuple[int, int]:
        return divmod(node, self.cfg.sats_per_plane)

    def positions_at(self, time_s: float) -> np.ndarray:
        """ECI positions (N, 3) in km at a given time."""
        cfg = self.cfg
        u = self._phase0 + cfg.mean_motion_rad_s * time_s
        r = cfg.orbit_radius_km
        cu, su = np.cos(u), np.sin(u)
        cr, sr = np.cos(self._raan), np.sin(self._raan)
        ci, si = math.cos(self._inc), math.sin(self._inc)
        x = r * (cr * cu - sr * ci * su)
        y = r * (sr * cu + cr * ci * su)
        z = r * (si * su)
        return np.stack([x, y, z], axis=1)

    def position(self, sat_id: int, time_s: float) -> SatPosition:
        if not 0 <= sat_id < self.cfg.num_sats:
            raise KeyError(f"unknown sat_id {sat_id}")
        if time_s < 0:
            raise ValueError("time_s must be >= 0")
        xyz = self.positions_at(time_s)[sat_id]
        return SatPosition(sat_id=sat_id, xyz=xyz, time_s=time_s)

    def snapshot(self, time_s: float, channel=None) -> GraphSnapshot:
        """Build the connectivity graph for the slot containing ``time_s``.

        Without a channel every grid link is up and carries no SNR/rate
        annotation; with one, availability, SNR and Shannon rate come from
        the channel's per-slot state (the channel is advanced as needed).
        """
        if time_s < 0:
            raise ValueError("time_s must be >= 0")
        positions = self.positions_at(time_s)
        dists = np.array(
            [np.linalg.norm(positions[a] - positions[b]) for a, b, _ in self.edge_index]
        )
        if channel is not None:
            slot = channel.slot_of(time_s)
            avail = channel.sample_failures(self.edge_index, time_s)
            snrs = channel.link_snr_array(dists, time_s)
            rates = channel.rate_array(snrs)
        else:
            slot = 0
            avail = np.ones(len(self.edge_index), dtype=bool)
            snrs = np.full(len(self.edge_index), math.nan)
            rates = np.full(len(self.edge_index), math.nan)
        edges = [
            Edge(
                src=a,
                dst=b,
                port=port,
                distance_km=float(dists[k]),
                available=bool(avail[k]),
                snr_db=float(snrs[k]),
                rate_bps=float(rates[k]),
            )
            for k, (a, b, port) in enumerate(self.edge_index)
        ]
        return GraphSnapshot(
            time_s=time_s,
            slot=slot,
            nodes=list(range(self.cfg.num_sats)),
            edges=edges,
            positions=positions,
        )


def build_constellation(cfg: ConstellationConfig) -> Constellation:
    return Constellation(cfg)


def grid_hop_distance(cfg: ConstellationConfig, a: int, b: int) -> int:
    """Wrap-around Manhattan hop count between two nodes on the +Grid."""
    s = cfg.sats_per_plane
    pa, sa = divmod(a, s)
    pb, sb = divmod(b, s)
    dp = abs(pa - pb)
    dp = min(dp, cfg.num_planes - dp)
    ds = abs(sa - sb)
    ds = min(ds, s - ds)
    return dp + ds
