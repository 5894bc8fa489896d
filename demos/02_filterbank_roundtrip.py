"""Four-band pseudo-QMF filterbank: design quality and round-trip SNR.

Run:  python demos/02_filterbank_roundtrip.py
"""

import numpy as np

from lvrc.filterbank import Filterbank, snr_db
from lvrc.trainer import synthetic_clip

n_bands = 4
bank = Filterbank(n_bands, 192)

print("== prototype ==")
proto = bank.prototype
print(f"taps: {len(proto)}, sum: {proto.sum():.6f} (target {np.sqrt(n_bands):.6f})")
w = 1.5 * np.pi / (2 * n_bands)  # 1.5x the band edge
resp = abs(np.sum(proto * np.exp(-1j * w * np.arange(len(proto)))))
print(f"attenuation at 1.5x band edge: {-20 * np.log10(resp / proto.sum()):.1f} dB")
print(f"cascade group delay: {bank.group_delay} samples")

print("\n== round trips ==")
rng = np.random.default_rng(1)
noise = rng.uniform(-0.9, 0.9, 16000 * 10)
speechish = synthetic_clip(rng, 16000, 16000 * 10)
for name, x in (("white noise", noise), ("synthetic speech", speechish)):
    rebuilt = bank.round_trip(x)
    print(f"{name:18s}: SNR {snr_db(x, rebuilt):6.1f} dB")

print("\n== band selectivity ==")
for freq in (100, 2500, 5000, 7500):
    t = np.arange(16000)
    x = np.sin(2 * np.pi * freq * t / 16000)
    bands = bank.analyze(x)
    energy = (bands**2).sum(axis=1)
    dominant = int(np.argmax(energy))
    print(f"{freq:5d} Hz sine -> band {dominant} holds {energy[dominant] / energy.sum():.1%}")
