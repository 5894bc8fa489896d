"""Log mel analysis and the 3 kb/s quantizer, end to end.

Generates a synthetic utterance, extracts log mel features, fits the
KLT + split VQ quantizer at the full-scale (16 kHz / 120-bit) settings,
and verifies the headline bitrate arithmetic: 120 bits per 40 ms
supervector is exactly 3000 b/s.

Run:  python demos/01_features_and_quantizer.py
"""

import numpy as np

from lvrc import quantizer as q
from lvrc.audio import AudioBuffer
from lvrc.config import paper_config
from lvrc.features import log_mel_features
from lvrc.trainer import synthetic_clip

cfg = paper_config()
rng = np.random.default_rng(0)
sr = cfg.model.sample_rate

print("== training features ==")
train_frames = np.concatenate([
    log_mel_features(AudioBuffer(synthetic_clip(rng, sr, 2 * sr), sr), cfg.model)
    for _ in range(20)
])
print(f"{train_frames.shape[0]} frames of {train_frames.shape[1]} log mel bins")

print("\n== fit KLT + split VQ ==")
model = q.fit_quantizer(train_frames, cfg.quantizer, cfg.digest())
eig = model.klt.eigenvalues
coded = model.vq.coded()  # (columns, codebook, bits) of each split given bits
coded_mass = sum(eig[cols].sum() for cols, _, _ in coded)
print(f"eigenvalue mass in coded splits: {coded_mass / eig.sum():.3f}")
print(f"bit allocations (nonzero): {[bits for _, _, bits in coded]}")
print(f"total bits per supervector: {model.vq.bits_per_vector}")

print("\n== encode 10 s, check the rate ==")
audio = AudioBuffer(synthetic_clip(rng, sr, 10 * sr), sr)
frames = log_mel_features(audio, cfg.model)
blob = q.encode(frames, model)
n_super = len(q.stack_supervectors(frames, cfg.quantizer.stack))
bits = q.payload_bits(n_super, model)
print(f"{n_super} supervectors -> {bits} payload bits in {audio.duration:.1f} s "
      f"= {bits / audio.duration:.0f} b/s")

decoded = q.decode(blob, model)
lsd = q.log_spectral_distortion_db(frames[: len(decoded)], decoded)
print(f"log-spectral distortion after the quantizer: {lsd:.2f} dB")
