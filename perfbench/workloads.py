"""The four workloads: inputs, set-up, one operation, and output checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. `make_inputs` uses numpy only and
runs before the set-up clock starts; `setup` is the first code that
imports lvrc. Every call into lvrc goes through a module attribute
(``quantizer.encode``, not a name imported from it) so that the traced
run's shims see it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter

# Faults a self-test can inject; each must be counted as a failed op.
FAULTS = ("flip-byte", "seed-mismatch", "truncate-checkpoint")


@dataclass
class Op:
    """One attempted operation: its timed samples and whether its checks passed."""

    wall_s: float = 0.0
    window: tuple = (0.0, 0.0)  # perf_counter start and end of the timed part
    audio_s: float = 0.0
    samples: list = field(default_factory=list)  # (wall s, audio s) per RTF sample
    encode_s: float = 0.0
    ok: bool = True
    error: str = ""
    info: dict = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.ok = False
        self.error = self.error or why


class Workload:
    """Defaults shared by the workloads."""

    closed_loop_min_ops = 1

    def finish(self, st: dict, ops: list, fault: str | None) -> None:
        """Checks that span several ops; run after the last op."""


def _import_lvrc():
    import lvrc
    import lvrc.config
    import lvrc.features
    import lvrc.model
    import lvrc.quantizer
    import lvrc.trainer

    return lvrc


def _fit_quantizer(lvrc, cfg, audio):
    sr = cfg.features.sample_rate
    frames = lvrc.features.log_mel_features(lvrc.AudioBuffer(audio, sr), cfg.features)
    return lvrc.quantizer.fit_quantizer(frames, cfg.quantizer, cfg.digest())


def _sha256(samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest()


class Decode(Workload):
    """features -> quantizer.encode -> quantizer.decode -> CodecModel.generate."""

    closed_loop_min_ops = 40  # ten utterances beyond p75

    def __init__(self, paper: bool):
        self.paper = paper
        # utterance lengths are whole supervectors (2 frames x 20 ms), so
        # the payload rate is exact; sized for ~100 ops in 30 s on one core
        self.utt_s = 0.12 if paper else 0.8
        self.fit_s = 20.0 if paper else 8.0  # paper: 500 supervectors > 320 KLT dims
        self.rate_bps = 3000 if paper else 1000
        self.shares = inputs.Shares(voiced=0.6, noise=0.25, silence=0.15)

    def make_inputs(self, seed: int, smoke: bool, workdir: str) -> dict:
        sr = 16000 if self.paper else 8000
        pool = 4 if smoke else 24
        return {
            "seed": seed,
            "fit": inputs.signals(seed, "fit", 1, sr, int(self.fit_s * sr), self.shares)[0],
            "utts": inputs.signals(seed, "utt", pool, sr, int(round(self.utt_s * sr)),
                                   self.shares),
        }

    def setup(self, data: dict, workdir: str) -> dict:
        lvrc = _import_lvrc()
        if self.paper:
            cfg = lvrc.config.paper_config()
            cfg.model.gru_blocks = 16
        else:
            cfg = lvrc.config.toy_config()
        qmodel = _fit_quantizer(lvrc, cfg, data["fit"])
        model = lvrc.model.CodecModel(cfg.model, seed=data["seed"])
        return {"lvrc": lvrc, "cfg": cfg, "q": qmodel, "model": model, **data}

    def _generate(self, st, frames, op_index: int):
        cfg = st["cfg"]
        rng = np.random.default_rng([st["seed"], op_index])
        seconds = len(frames) * cfg.features.hop_length / cfg.features.sample_rate
        return st["model"].generate(frames, rng, seconds=seconds).samples

    def run_op(self, st: dict, i: int, fault: str | None) -> Op:
        lvrc, cfg, qm = st["lvrc"], st["cfg"], st["q"]
        quantizer = lvrc.quantizer
        x = st["utts"][i % len(st["utts"])]
        sr = cfg.features.sample_rate
        op = Op(audio_s=len(x) / sr)
        t0 = clock()
        frames = lvrc.features.log_mel_features(lvrc.AudioBuffer(x, sr), cfg.features)
        blob = quantizer.encode(frames, qm)
        t1 = clock()
        if fault == "flip-byte" and i == 0:
            blob = blob[:17] + bytes([blob[17] ^ 0xFF]) + blob[18:]
        decoded = quantizer.decode(blob, qm)
        t2 = clock()
        wave = self._generate(st, decoded, i)
        t3 = clock()
        op.wall_s, op.window, op.encode_s = t3 - t0, (t0, t3), t1 - t0
        op.samples.append((t3 - t2, op.audio_s))

        n_super = len(frames) // qm.stack
        bits = quantizer.payload_bits(n_super, qm)
        if len(blob) != 17 + math.ceil(bits / 8):
            op.fail(f"bitstream is {len(blob)} bytes, expected {17 + math.ceil(bits / 8)}")
        if bits * sr != self.rate_bps * len(x):
            op.fail(f"payload rate {bits * sr / len(x):.3f} b/s != {self.rate_bps}")
        indices = quantizer.quantize_indices(frames, qm)
        if not np.array_equal(decoded, quantizer.reconstruct_from_indices(indices, n_super, qm)):
            op.fail("decode(encode(x)) differs from reconstruct(quantize_indices(x))")
        if len(wave) != len(x) or not np.all(np.isfinite(wave)):
            op.fail(f"waveform has {len(wave)} samples (expected {len(x)}) or non-finite values")
        op.info["sha256"] = _sha256(wave)
        if i == 0:
            st["pair"] = decoded
        return op

    def finish(self, st: dict, ops: list, fault: str | None) -> None:
        """Decode op 0 again with the same seed; it must be bit-identical."""
        if not ops or "pair" not in st:
            return
        seed_index = 1 if fault == "seed-mismatch" else 0
        again = _sha256(self._generate(st, st["pair"], seed_index))
        if again != ops[0].info.get("sha256"):
            ops[0].fail("same-seed decode is not bit-identical")


class Train(Workload):
    """One trainer.train() call of `steps` steps on a benchmark-built ClipDataset."""

    closed_loop_min_ops = 2
    shares = inputs.Shares(voiced=0.7, noise=0.15, silence=0.15)
    n_clips, n_noises = 32, 8

    def make_inputs(self, seed: int, smoke: bool, workdir: str) -> dict:
        sr, clip = 8000, 1280  # toy clip_seconds = 0.16
        # one long signal cut into clips keeps the shares exact over the pool
        long = inputs.signals(seed, "clips", 1, sr, clip * self.n_clips, self.shares)[0]
        noise = inputs.Shares(voiced=0.0, noise=1.0, silence=0.0)
        return {
            "seed": seed,
            "smoke": smoke,
            "clips": [long[k * clip : (k + 1) * clip] for k in range(self.n_clips)],
            "noises": inputs.signals(seed, "noise", self.n_noises, sr, 4000, noise),
        }

    def setup(self, data: dict, workdir: str) -> dict:
        lvrc = _import_lvrc()
        cfg = lvrc.config.toy_config()
        cfg.train.steps = 4 if data["smoke"] else 10
        cfg.train.checkpoint_interval = 2 if data["smoke"] else 5
        cfg.train.seed = data["seed"]
        dataset = lvrc.trainer.ClipDataset(cfg, data["clips"], data["noises"])
        calls = []

        def timed_batch(step):
            # one clock read per step marks step boundaries in the untraced run
            calls.append(clock())
            return type(dataset).batch(dataset, step)

        dataset.batch = timed_batch
        return {"lvrc": lvrc, "cfg": cfg, "ds": dataset, "calls": calls,
                "workdir": workdir, **data}

    def run_op(self, st: dict, i: int, fault: str | None) -> Op:
        lvrc, cfg = st["lvrc"], st["cfg"]
        out_dir = os.path.join(st["workdir"], f"train-{i}")
        calls = st["calls"]
        calls.clear()
        clip_s = st["ds"].clip_len / cfg.features.sample_rate
        t0 = clock()
        result = lvrc.trainer.train(cfg, out_dir, dataset=st["ds"])
        t1 = clock()
        bounds = calls + [t1]
        step_audio = cfg.train.batch_size * clip_s
        op = Op(wall_s=t1 - t0, window=(t0, t1), audio_s=cfg.train.steps * step_audio)
        op.samples = [(b - a, step_audio) for a, b in zip(bounds, bounds[1:])]
        op.info["steps"] = len(calls)

        if result.halted:
            op.fail("training halted on a non-finite loss")
        rows = result.metrics
        if len(rows) != cfg.train.steps or not all(
                math.isfinite(r[k]) for r in rows for k in ("nll", "jvar", "sigma_mean")):
            op.fail(f"{len(rows)} metrics rows for {cfg.train.steps} steps, or a non-finite value")
        elif not rows[-1]["nll"] < rows[0]["nll"]:
            op.fail(f"NLL did not fall: {rows[0]['nll']:.4f} -> {rows[-1]['nll']:.4f}")
        else:
            op.info["nll"] = (rows[0]["nll"], rows[-1]["nll"])
        if fault == "truncate-checkpoint" and i == 0:
            with open(result.checkpoint_path, "r+b") as fh:
                fh.truncate(os.path.getsize(result.checkpoint_path) // 2)
        sums = []
        for path in (result.checkpoint_path, result.checkpoint_series[-1]):
            model = lvrc.model.CodecModel(cfg.model, seed=cfg.train.seed)
            try:
                model.load_checkpoint(path, expected_digest=cfg.digest())
            except (lvrc.CodecError, OSError) as exc:
                op.fail(f"checkpoint {os.path.basename(path)} does not reload: {exc}")
                return op
            sums.append(model.weights_checksum())
        if sums[0] != sums[1]:
            op.fail("final checkpoint and last kept checkpoint reload differently")
        return op


EVAL_CODE = "import sys; from lvrc.cli import main; sys.exit(main(sys.argv[1:]))"


class Eval(Workload):
    """One fresh `lvrc eval` process over a manifest of K WAV files."""

    closed_loop_min_ops = 3
    shares = inputs.Shares(voiced=0.5, noise=0.2, silence=0.3)
    utt_s = 1.0

    def make_inputs(self, seed: int, smoke: bool, workdir: str) -> dict:
        sr = 8000
        k = 2 if smoke else 6
        lines = []
        for j, x in enumerate(inputs.signals(seed, "eval", k, sr, int(self.utt_s * sr),
                                             self.shares)):
            path = os.path.join(workdir, f"utt{j}.wav")
            with open(path, "wb") as fh:
                fh.write(inputs.pcm16_wav(x, sr))
            lines.append(f"{path}\t-\tdev\n")
        manifest = os.path.join(workdir, "eval.tsv")
        with open(manifest, "w") as fh:
            fh.writelines(lines)
        return {"seed": seed, "manifest": manifest, "k": k, "audio_s": k * self.utt_s,
                "fit": inputs.signals(seed, "fit", 1, sr, 8 * sr, self.shares)[0]}

    def setup(self, data: dict, workdir: str) -> dict:
        lvrc = _import_lvrc()
        cfg = lvrc.config.toy_config()
        cfg.train.seed = data["seed"]
        paths = {name: os.path.join(workdir, name) for name in
                 ("toy.cfg", "toy.lvrq", "model.ckpt")}
        cfg.save(paths["toy.cfg"])
        _fit_quantizer(lvrc, cfg, data["fit"]).save(paths["toy.lvrq"])
        model = lvrc.model.CodecModel(cfg.model, seed=cfg.train.seed)
        model.save_checkpoint(paths["model.ckpt"], cfg.digest(), 0)
        return {"lvrc": lvrc, "cfg": cfg, "paths": paths, "workdir": workdir, "traced": False,
                "child_spans": [], **data}

    def run_op(self, st: dict, i: int, fault: str | None) -> Op:
        p = st["paths"]
        report = os.path.join(st["workdir"], f"report-{i}.csv")
        args = ["eval", "--config", p["toy.cfg"], "--model", p["model.ckpt"],
                "--manifest", st["manifest"], "--quantizer", p["toy.lvrq"], report]
        if not st["traced"]:
            cmd = [sys.executable, "-c", EVAL_CODE] + args
        else:
            spans_path = os.path.join(st["workdir"], f"spans-{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "eval_entry.py"), spans_path, str(i)] + args
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        t1 = clock()
        op = Op(wall_s=t1 - t0, window=(t0, t1), audio_s=st["audio_s"])
        op.samples.append((t1 - t0, st["audio_s"]))
        if st["traced"] and proc.returncode == 0:
            st["child_spans"].append(spans_path)
        if proc.returncode != 0:
            op.fail(f"lvrc eval exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return op
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != st["k"]:
            op.fail(f"{len(rows)} report rows for {st['k']} manifest lines")
        for row in rows:
            nll, lsd = float(row["nll_bits_per_sample"]), float(row["quantizer_lsd_db"])
            snr = float(row["filterbank_snr_db"])
            if not (math.isfinite(nll) and math.isfinite(lsd)):
                op.fail(f"non-finite NLL or LSD in {row['utterance']}")
            if not snr > 60.0:
                op.fail(f"filterbank SNR {snr:.1f} dB <= 60 dB in {row['utterance']}")
        op.info["snr_db"] = min(float(r["filterbank_snr_db"]) for r in rows) if rows else None
        return op



WORKLOADS = {
    "toy-decode": lambda: Decode(paper=False),
    "paper-decode-b16": lambda: Decode(paper=True),
    "toy-train": Train,
    "toy-eval": Eval,
}
