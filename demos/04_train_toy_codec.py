"""Train the toy codec on synthetic tones and exercise the full pipeline.

Trains a small model (GRU 64, K=4, 8 kHz) for a few hundred steps on the
built-in synthetic dataset, fits the quantizer, then runs encode ->
decode through the command-line surface. More steps give better audio;
the acceptance suite trains longer and also compares variance
regularization on vs off.

Run:  python demos/04_train_toy_codec.py [steps]
"""

import sys
import tempfile
from pathlib import Path

from lvrc import cli
from lvrc.config import toy_config

steps = int(sys.argv[1]) if len(sys.argv) > 1 else 300

work = Path(tempfile.mkdtemp(prefix="lvrc_demo_"))
cfg = toy_config()
cfg.train.steps = steps
cfg.train.lr = 2e-3
cfg_path = work / "toy.cfg"
cfg.save(cfg_path)
print(f"working directory: {work}")

print(f"\n== train {steps} steps ==")
assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(work / "run")]) == 0

print("\n== fit quantizer ==")
assert cli.main([
    "fit-quantizer", "--config", str(cfg_path), "--synthetic", "32",
    "--out", str(work / "toy.lvrq"),
]) == 0

print("\n== make a 2 s burst-train test tone and encode it ==")
import numpy as np

from lvrc.audio import AudioBuffer, save_wav
from lvrc.trainer import tone_burst_train

sr = cfg.features.sample_rate
tone = tone_burst_train(np.random.default_rng(5), sr, 2 * sr, f0=220.0)
save_wav(work / "tone.wav", AudioBuffer(tone, sr))
assert cli.main([
    "encode", "--config", str(cfg_path), "--quantizer", str(work / "toy.lvrq"),
    str(work / "tone.wav"), str(work / "tone.lvrc"),
]) == 0

print("\n== decode (autoregressive sampling + synthesis filterbank) ==")
assert cli.main([
    "decode", "--config", str(cfg_path), "--quantizer", str(work / "toy.lvrq"),
    "--model", str(work / "run" / "model.ckpt"), "--seed", "7",
    str(work / "tone.lvrc"), str(work / "decoded.wav"),
]) == 0

from lvrc.audio import load_wav
from lvrc.filterbank import Filterbank

decoded = load_wav(work / "decoded.wav")
bank = Filterbank(cfg.model.n_bands, cfg.model.fb_taps)
band0 = bank.analyze(decoded.samples)[0]
spectrum = np.abs(np.fft.rfft(band0 * np.hanning(len(band0))))
peak = np.argmax(spectrum) * (sr / cfg.model.n_bands) / len(band0)
print(f"decoded band-0 spectral peak: {peak:.0f} Hz (conditioning tone 220 Hz)")
print(f"decoded file: {work / 'decoded.wav'}")
