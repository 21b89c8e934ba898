"""Walker-style constellation geometry and the time-varying connectivity graph.

Satellites fly circular Keplerian orbits around a spherical Earth.  The
inter-satellite topology is the +Grid pattern: each satellite keeps links to
its two intra-plane neighbors and to the same-slot satellites in the two
adjacent planes.  Link availability and quality come from a ChannelModel;
geometry (positions, distances) is pure deterministic math.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._fields import ConfigError, check_numeric_fields
from .channel import SLOT_BLOCK

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
        check_numeric_fields(self)
        if self.num_planes < 1:
            raise ConfigError("num_planes must be >= 1")
        if self.sats_per_plane < 1:
            raise ConfigError("sats_per_plane must be >= 1")
        for name in ("altitude_km", "earth_radius_km", "mu_km3_s2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ConfigError("inclination_deg must be in [0, 180]")

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


@dataclass
class GraphSnapshot:
    """The constellation graph at one time slot, as (N, NUM_PORTS) arrays.

    Row ``node``, column ``port`` describes the directed link leaving that
    port: ``dst`` is the neighbor (-1 where the port does not exist on this
    shell), ``avail`` says whether routing may use it this slot (False for
    an absent port), and ``dist_km``, ``snr_db`` and ``rate_bps`` carry its
    geometry and channel state (NaN for an absent port; SNR and rate are
    NaN throughout a snapshot built without a channel).  The arrays are
    views of the slot's row of a block of slot state (see
    ``Constellation.snapshot``), shared with whoever reads the snapshot, and
    must not be written to.

    Per-event readers take link lengths from ``link_km()``, a flat Python
    list built once per slot.  ``distance_km`` computes the one pair it is
    asked for; nothing is cached per destination.
    """
    time_s: float
    slot: int
    positions: np.ndarray  # (N, 3) km
    dst: np.ndarray        # (N, NUM_PORTS) int64
    avail: np.ndarray      # (N, NUM_PORTS) bool
    dist_km: np.ndarray    # (N, NUM_PORTS)
    snr_db: np.ndarray     # (N, NUM_PORTS)
    rate_bps: np.ndarray   # (N, NUM_PORTS)
    # Per node, the (src, cell) of every port leading into it; shared by
    # every snapshot of the shell (see ``_reverse_ports``).
    in_ports: tuple = field(repr=False, compare=False)
    # Per cell of the flattened (N, NUM_PORTS) arrays, the neighbor behind
    # it (-1: no port); the shell's one port table (``_port_cells``).
    dst_cells: tuple = field(repr=False, compare=False)
    # Per-slot observation rows, built by the agent on first use.
    obs_rows: object = field(default=None, repr=False, compare=False)
    _link_km: list | None = field(default=None, repr=False, compare=False)

    def port_mask(self, node: int) -> np.ndarray:
        """Boolean (NUM_PORTS,) availability mask for a node."""
        return self.avail[node].copy()

    def link_km(self) -> list[float]:
        """Per cell of the flattened (N, NUM_PORTS) arrays, the length of
        its link in km, or inf where routing may not use it this slot.

        Built on first use and kept for the slot.
        """
        if self._link_km is None:
            self._link_km = np.where(self.avail, self.dist_km, math.inf).ravel().tolist()
        return self._link_km

    def distance_km(self, a: int, b: int) -> float:
        """Straight-line distance between two nodes.

        ``math.sqrt(d.dot(d))`` is ``np.linalg.norm``'s own formula, so it
        rounds exactly like the norm and like the rows of
        ``np.sqrt(np.vecdot(D, D))``; Python-float arithmetic would not.
        """
        d = self.positions[a] - self.positions[b]
        return math.sqrt(d.dot(d))


@functools.cache
def _port_cells(p: int, s: int) -> tuple[int, ...]:
    """Per cell ``node * NUM_PORTS + port`` of a ``p`` x ``s`` +Grid shell,
    the neighbor behind that port, or -1 where the port does not exist.

    The one port table of a shell shape, shared by every constellation and
    snapshot of it; the engine's queues, the snapshot's flattened arrays
    and the channel's links are all addressed by these cells.
    """
    cells = [-1] * (p * s * NUM_PORTS)
    for node in range(p * s):
        pl, sl = divmod(node, s)
        base = node * NUM_PORTS
        if s >= 2:
            cells[base + PORT_INTRA_FWD] = pl * s + (sl + 1) % s
            if s >= 3:
                cells[base + PORT_INTRA_BWD] = pl * s + (sl - 1) % s
        if p >= 2:
            cells[base + PORT_INTER_FWD] = ((pl + 1) % p) * s + sl
            if p >= 3:
                cells[base + PORT_INTER_BWD] = ((pl - 1) % p) * s + sl
    return tuple(cells)


@functools.cache
def _reverse_ports(p: int, s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node of a ``p`` x ``s`` +Grid shell, the ``(src, cell)`` of every
    port leading into it, in cell (that is, (src, port)) order.

    Built once per shell shape and shared by every constellation of that
    shape.
    """
    rev: list[list[tuple[int, int]]] = [[] for _ in range(p * s)]
    for cell, dst in enumerate(_port_cells(p, s)):
        if dst >= 0:
            rev[dst].append((cell // NUM_PORTS, cell))
    return tuple(map(tuple, rev))


@functools.cache
def _edge_index(p: int, s: int) -> tuple[tuple[int, int, int], ...]:
    """The directed links of a ``p`` x ``s`` +Grid shell as ``(src, dst,
    port)``, in cell (that is, (src, port)) order.

    Built once per shell shape and shared by every constellation of that
    shape; this order is the contract the channel model uses for its
    per-link state arrays.
    """
    return tuple((cell // NUM_PORTS, dst, cell % NUM_PORTS)
                 for cell, dst in enumerate(_port_cells(p, s)) if dst >= 0)


class Constellation:
    """Walker shell with a fixed +Grid port table and circular-orbit motion."""

    def __init__(self, cfg: ConstellationConfig):
        self.cfg = cfg
        p, s = cfg.num_planes, cfg.sats_per_plane
        self.plane = np.repeat(np.arange(p), s)
        self.slot = np.tile(np.arange(s), p)
        # Argument of latitude at t=0: in-plane spacing plus Walker phasing.
        self._phase0 = (
            2.0 * math.pi * self.slot / s
            + 2.0 * math.pi * cfg.phasing_factor * self.plane / (p * s)
        )
        # Per-node orbit-plane factors of ``positions_at``, with its grouping
        # kept: ``(sin(raan) * cos(inc)) * sin(u)`` rounds as before.
        raan = 2.0 * math.pi * self.plane / p
        inc = math.radians(cfg.inclination_deg)
        self._cr, self._sr = np.cos(raan), np.sin(raan)
        self._crci, self._srci = self._cr * math.cos(inc), self._sr * math.cos(inc)
        self._si = math.sin(inc)
        # Per cell, the neighbor behind the port (-1: none); see ``_port_cells``.
        self.dst_cells = _port_cells(p, s)
        self._in_ports = _reverse_ports(p, s)
        cells = np.array(self.dst_cells, dtype=np.int64)
        # Directed links in cell order, as ``edge_index`` lists them.
        self._edge_cell = np.flatnonzero(cells >= 0)
        self._edge_src, self._edge_dst = self._edge_cell // NUM_PORTS, cells[self._edge_cell]
        self.edge_index = _edge_index(p, s)
        self._port_dst = cells.reshape(cfg.num_sats, NUM_PORTS)
        self._port_dst.flags.writeable = False
        # The slot state of the block last read, and the (channel, first
        # slot) of the drawn rows it was computed from.
        self._block: tuple | None = None
        self._block_of: tuple | None = None

    def positions_at(self, time_s: float) -> np.ndarray:
        """ECI positions (N, 3) in km at a given time."""
        return self._positions(np.array([time_s]))[0]

    def _positions(self, times: np.ndarray) -> np.ndarray:
        """ECI positions (R, N, 3) in km at each of ``times``."""
        cfg = self.cfg
        u = self._phase0 + (cfg.mean_motion_rad_s * times)[:, None]
        r = cfg.orbit_radius_km
        cu, su = np.cos(u), np.sin(u)
        pos = np.empty(u.shape + (3,))
        pos[..., 0] = r * (self._cr * cu - self._srci * su)
        pos[..., 1] = r * (self._sr * cu + self._crci * su)
        pos[..., 2] = r * (self._si * su)
        return pos

    def _slot_state(self, times: np.ndarray, channel=None, rows=slice(None)) -> tuple:
        """Slot state at each of ``times``, one numpy pass per quantity over
        a leading slot axis: per time, the (N, 3) positions, the (3, N,
        NUM_PORTS) lengths, SNRs and rates (NaN where a port is absent) and
        the (N, NUM_PORTS) availability flags.

        With a channel, ``rows`` selects the channel's drawn slots that
        ``times`` stand for; without one every grid link is up and SNR and
        rate are NaN.
        """
        positions = self._positions(times)
        delta = positions.take(self._edge_src, axis=1) - positions.take(self._edge_dst, axis=1)
        # sqrt of vecdot rounds exactly like a per-vector np.linalg.norm.
        dists = np.sqrt(np.vecdot(delta, delta))
        r, n, cells = len(times), self.cfg.num_sats, self._edge_cell
        table = np.full((r, 3, n * NUM_PORTS), math.nan)
        avail = np.zeros((r, n * NUM_PORTS), dtype=bool)
        table[:, 0, cells] = dists
        if channel is not None:
            snrs = channel.snr_rows(dists, rows)
            table[:, 1, cells] = snrs
            table[:, 2, cells] = channel.rate_array(snrs)
            avail[:, cells] = channel.available_rows(rows)
        else:
            avail[:, cells] = True
        return positions, table.reshape(r, 3, n, NUM_PORTS), avail.reshape(r, n, NUM_PORTS)

    def snapshot(self, time_s: float, channel=None) -> GraphSnapshot:
        """Build the connectivity graph for the slot containing ``time_s``.

        Without a channel every grid link is up and carries no SNR/rate
        annotation; with one, availability, SNR and Shannon rate come from
        the channel's state, after one ``advance_to_slot`` to the slot
        (several slots at once if the channel is behind).  The channel must
        have been built on ``edge_index``.

        On the slot grid (``time_s == slot * slot_length_s``) the first read
        of a block the channel has drawn computes the slot state of all its
        ``SLOT_BLOCK`` slots, kept until a read from another block; the
        snapshot's arrays are views of its slot's row.  An off-grid or
        channel-less snapshot is the one-row case of the same computation.
        """
        if time_s < 0:
            raise ValueError("time_s must be >= 0")
        if channel is None:
            return self._row_snapshot(self._slot_state(np.array([time_s])), 0, time_s, 0)
        slot = channel.slot_of(time_s)
        channel.advance_to_slot(slot)
        k = slot - channel.first
        if time_s != slot * channel.slot_length_s:
            state = self._slot_state(np.array([time_s]), channel, slice(k, k + 1))
            return self._row_snapshot(state, 0, time_s, slot)
        if self._block_of != (channel, channel.first):
            first = channel.first
            self._block = self._slot_state(
                np.arange(first, first + SLOT_BLOCK) * channel.slot_length_s, channel)
            self._block_of = (channel, first)
        return self._row_snapshot(self._block, k, time_s, slot)

    def _row_snapshot(self, state: tuple, k: int, time_s: float, slot: int) -> GraphSnapshot:
        positions, table, avail = state
        dist_km, snr_db, rate_bps = table[k]
        return GraphSnapshot(
            time_s=time_s,
            slot=slot,
            positions=positions[k],
            dst=self._port_dst,
            avail=avail[k],
            dist_km=dist_km,
            snr_db=snr_db,
            rate_bps=rate_bps,
            in_ports=self._in_ports,
            dst_cells=self.dst_cells,
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
