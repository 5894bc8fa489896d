"""The core mechanism: predictive-variance regularization on voiced speech.

Trains two identical toy models, one with nu=0 and one with nu=0.01
(log-form regularizer on the two lowest bands, weighted by a voicing
score), then compares the predictive spread sigma_q on strongly voiced
frames of held-out clips. The regularized model concentrates its
predictive distribution where the signal is predictable, at a small
teacher-forced likelihood cost.

The default run is the acceptance suite's paired experiment (criterion
8): seed 2024, 4000 steps, lr 2e-3 with the trainer's 1/t decay
(trainer.LR_DECAY_STEPS), held-out clips from seed 777. This is the
long-running demo: its two 4000-step trainings take about 15 minutes
on a 2-core Intel Xeon VM (91-102 ms per training step, measured over
100 steps of each run).

Run:  python demos/05_variance_regularization.py [steps]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from lvrc.audio import AudioBuffer
from lvrc.config import toy_config
from lvrc.features import log_mel_features
from lvrc.model import CodecModel
from lvrc.trainer import ClipDataset, train

steps = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
work = Path(tempfile.mkdtemp(prefix="lvrc_reg_"))

runs = {}
for nu in (0.0, 0.01):
    cfg = toy_config()
    cfg.train.steps = steps
    cfg.train.nu = nu
    cfg.train.lr = 2e-3
    cfg.train.seed = 2024
    dataset = ClipDataset.synthetic(cfg)
    print(f"== training with nu={nu} ==")
    result = train(cfg, work / f"nu{nu}", dataset=dataset)
    for row in result.metrics[:: max(len(result.metrics) // 5, 1)]:
        print(f"  step {row['step']:5d}  nll {row['nll']:+.4f}  sigma {row['sigma_mean']:.4f}")
    runs[nu] = (cfg, result)

print("\n== held-out comparison on voiced frames ==")
cfg0 = runs[0.0][0]
held_out = ClipDataset.synthetic(cfg0, n_clips=16, seed=777)
sr = cfg0.model.sample_rate
stats = {}
for nu, (cfg, result) in runs.items():
    model = CodecModel(cfg.model, seed=cfg.train.seed)
    model.load_checkpoint(result.checkpoint_path)
    sigmas, nlls = [], []
    for clip, voicing in zip(held_out.clips, held_out.voicing):
        mels = log_mel_features(AudioBuffer(clip, sr), cfg.model)
        st = model.teacher_forced(clip, mels, voicing=voicing[None], compute_grads=False)
        voiced = st["weights"][0] > 0.8  # each step's frame voicing
        if voiced.any():
            sigmas.append(st["sigma"][0][voiced].mean())
        nlls.append(st["nll"])
    stats[nu] = (float(np.mean(sigmas)), float(np.mean(nlls)))
    print(f"nu={nu}: voiced-frame sigma_q {stats[nu][0]:.5f}, NLL {stats[nu][1]:+.4f} nats/sample")

ratio = stats[0.01][0] / stats[0.0][0]
penalty = stats[0.01][1] - stats[0.0][1]
print(f"\nsigma_q ratio (regularized / baseline): {ratio:.3f}")
print(f"likelihood cost: {penalty:+.3f} nats per band sample")
