"""Payload budgets, relay processing and the quality proxy.

Shows how the channel budget scales payload size and chunk count, what a
relay re-quantization does to the semantic state, and how delivered
quality responds to link SNR, budget and accumulated distortion.  Also
demonstrates loading a measured (snr, C) -> quality calibration table.
"""
import pathlib

from leosem import QualityProxyConfig, SemanticState, packetize, quality
from leosem.semantic import BUDGET_SET, record_hop, relay_process

cfg = QualityProxyConfig()

print("packetization of the default latent payload:")
for c in BUDGET_SET:
    plan = packetize(cfg.base_latent_bytes, c)
    print(f"  C={c:3d}: {plan.payload_bytes:>9d} bytes -> {plan.num_chunks} chunks")

print("\na payload crossing four links at 5 dB, relayed once in the middle:")
state = SemanticState(session_id=0, budget_c=128)
for hop in range(4):
    state = record_hop(state, 5.0, cfg)
    if hop == 1:
        state = relay_process(state, 1, 96, cfg)  # prune to C=96, recover distortion
        print(f"  after relay: budget={state.budget_c}, "
              f"distortion={state.accum_distortion:.4f}, requants={state.quant_penalties}")
print(f"  delivered: budget={state.budget_c}, distortion={state.accum_distortion:.4f}, "
      f"min SNR={state.min_link_snr_db:.1f} dB")
print(f"  quality score: {quality(state, cfg):.4f}")

print("\nquality vs bottleneck SNR (2 hops, no relay):")
print("  snr_db   C=64    C=96    C=128")
for snr in (-5, 0, 3, 6, 10, 15):
    row = []
    for c in BUDGET_SET:
        s = SemanticState(session_id=0, budget_c=c)
        s = record_hop(record_hop(s, snr, cfg), snr, cfg)
        row.append(quality(s, cfg))
    print(f"  {snr:+6d}  " + "  ".join(f"{q:.3f}" for q in row))

cal_path = pathlib.Path(__file__).parent / "data" / "calibration_example.csv"
cal_cfg = QualityProxyConfig(calibration_table=str(cal_path))
print(f"\nwith the example calibration table ({cal_path.name}):")
for snr in (-2, 4, 12):
    s = SemanticState(session_id=0, budget_c=96, min_link_snr_db=snr)
    print(f"  min SNR {snr:+3d} dB, C=96 -> quality {quality(s, cal_cfg):.3f}")
