"""Walk through the orbital geometry and the time-varying link graph.

Builds the default 10x7 shell, shows satellite motion, the +Grid
neighbor structure, and how link SNR/rate/availability evolve slot by
slot under the stochastic channel.
"""
import numpy as np

from leosem import (ChannelConfig, ChannelModel, ConstellationConfig,
                    build_constellation, link_rate)

cfg = ConstellationConfig()  # 10 planes x 7 sats at 570 km
con = build_constellation(cfg)

print(f"shell: {cfg.num_planes} planes x {cfg.sats_per_plane} sats "
      f"= {cfg.num_sats} satellites")
print(f"orbit radius {cfg.orbit_radius_km:.0f} km, period {cfg.period_s / 60:.1f} min")

# positions_at gives every satellite's ECI position (km) at one time.
p = con.positions_at(0.0)[0]
print(f"\nsat 0 at t=0: {np.round(p, 1)} km (|r| = {np.linalg.norm(p):.1f})")
p_half = con.positions_at(cfg.period_s / 2)[0]
print(f"sat 0 half an orbit later: {np.round(p_half, 1)} km")

print("\n+Grid ports of satellite 0 (plane 0, slot 0):")
names = {0: "intra +", 1: "intra -", 2: "plane +", 3: "plane -"}
for port, neighbor in enumerate(con.snapshot(0.0).dst[0].tolist()):
    if neighbor >= 0:
        print(f"  port {port} ({names[port]}) -> sat {neighbor}")

# Attach a channel and look at a few snapshots.  A snapshot is a set of
# (satellite, port) arrays: neighbor id (-1 if the port is absent),
# availability, distance, SNR and Shannon rate.
channel = ChannelModel(ChannelConfig(), con.edge_index, slot_length_s=0.1, seed=7)
for slot in (0, 5, 10):
    snap = con.snapshot(slot * 0.1, channel)
    up = snap.avail
    dists, snrs = snap.dist_km[up], snap.snr_db[up]
    print(f"\nslot {slot}: {up.sum()}/{(snap.dst >= 0).sum()} links up, "
          f"distance {dists.min():.0f}..{dists.max():.0f} km, "
          f"SNR {snrs.min():.1f}..{snrs.max():.1f} dB")
    print(f"  sat 0 ports: neighbor {snap.dst[0].tolist()}, up {up[0].tolist()}, "
          f"rate {np.round(snap.rate_bps[0] / 1e6, 2).tolist()} Mbit/s")

print("\nShannon rate at a few SNRs (1 MHz):")
for snr in (-5, 0, 5, 10, 15):
    print(f"  {snr:+3d} dB -> {link_rate(snr, 1e6) / 1e6:.3f} Mbit/s")
