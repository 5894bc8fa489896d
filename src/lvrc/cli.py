"""Command-line surface: fit-quantizer, train, encode, decode, eval.

Every command takes --config (the single source of truth); its canonical
digest is embedded in each artifact and checked on load. Exit codes:
0 success, 2 usage/config errors, 3 format or digest errors, 4 numeric
failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

import numpy as np

from . import quantizer as q
from .audio import AudioBuffer, load_wav, save_wav
from .config import load_config
from .container import write_file_atomic
from .errors import CodecError, ConfigError, FormatError
from .features import log_mel_features
from .filterbank import snr_db
from .model import CodecModel
from .trainer import ClipDataset, parse_manifest, train, voicing_per_frame


def _collect_frames(cfg, manifest_path, synthetic_clips):
    """Training feature matrix for the quantizer fit."""
    frames = []
    if manifest_path:
        for entry in parse_manifest(manifest_path):
            if entry.split != "train":
                continue
            frames.append(log_mel_features(load_wav(entry.clean_path), cfg.features))
    if synthetic_clips:
        dataset = ClipDataset.synthetic(cfg, n_clips=synthetic_clips, n_noises=0)
        sr = cfg.features.sample_rate
        for clip in dataset.clips:
            frames.append(log_mel_features(AudioBuffer(clip, sr), cfg.features))
    frames = [f for f in frames if len(f)]
    if not frames:
        raise ConfigError("no training features: pass --manifest and/or --synthetic")
    return np.concatenate(frames, axis=0)


def cmd_fit_quantizer(args) -> int:
    cfg = load_config(args.config)
    frames = _collect_frames(cfg, args.manifest, args.synthetic)
    model = q.fit_quantizer(frames, cfg.quantizer, cfg.digest())
    model.save(args.out)

    eig = model.klt.eigenvalues
    coded = model.vq.coded()
    coded_mass = sum(eig[cols].sum() for cols, _, _ in coded)
    print(f"fitted on {len(frames)} frames -> {args.out}")
    print(f"eigenvalue mass captured by coded splits: {coded_mass / eig.sum():.4f}")
    print("split allocation (split: bits):")
    line = ", ".join(f"{cols.start // model.vq.split_dim}:{bits}" for cols, _, bits in coded)
    print(f"  {line if line else '(none)'}")
    print(f"total = {model.vq.bits_per_vector} bits per supervector")
    return 0


def cmd_encode(args) -> int:
    cfg = load_config(args.config)
    model = q.QuantizerModel.load(args.quantizer, expected_digest=cfg.digest())
    audio = load_wav(args.input)
    frames = log_mel_features(audio, cfg.features)
    blob = q.encode(frames, model)
    write_file_atomic(args.output, blob)
    n_super = len(q.stack_supervectors(frames, model.stack))
    bits = q.payload_bits(n_super, model)
    duration = max(audio.duration, 1e-12)
    print(f"{bits} payload bits in {audio.duration:.3f} s -> {bits / duration:.0f} b/s")
    return 0


def cmd_decode(args) -> int:
    cfg = load_config(args.config)
    digest = cfg.digest()
    qmodel = q.QuantizerModel.load(args.quantizer, expected_digest=digest)
    with open(args.input, "rb") as fh:
        blob = fh.read()
    frames = q.decode(blob, qmodel)
    if frames.shape[1] != cfg.model.n_mels:  # the digest binds the config, not the arrays
        raise FormatError(f"quantizer gives {frames.shape[1]} mels, model takes {cfg.model.n_mels}")
    model = CodecModel(cfg.model, seed=cfg.train.seed)
    model.load_checkpoint(args.model, expected_digest=digest)
    if len(frames) == 0:
        save_wav(args.output, AudioBuffer(np.zeros(0), cfg.features.sample_rate))
        print(f"decoded 0 frames -> {args.output}")
        return 0
    rng = np.random.default_rng(args.seed)
    seconds = len(frames) * cfg.features.hop_length / cfg.features.sample_rate
    start = time.perf_counter()
    audio = model.generate(frames, rng, seconds=seconds)
    wall = time.perf_counter() - start
    save_wav(args.output, audio)
    print(f"decoded {len(frames)} frames ({seconds:.3f} s) in {wall:.3f} s, "
          f"RTF {wall / seconds:.3f} -> {args.output}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    dataset = None
    if args.manifest:
        entries = parse_manifest(args.manifest)
        dataset = ClipDataset.from_manifest(cfg, entries)
    result = train(cfg, args.out_dir, dataset=dataset, resume_from=args.resume)
    status = "halted on non-finite loss" if result.halted else "finished"
    reason = f" ({result.halt_reason})" if result.halted else ""
    print(f"{status} at step {result.final_step}{reason}; checkpoint: {result.checkpoint_path}")
    return 4 if result.halted else 0


EVAL_HEADER = [
    "utterance",
    "nll_bits_per_sample",
    "sigma_mean",
    "sigma_p90",
    "sigma_voiced_mean",
    "sigma_voiced_p90",
    "quantizer_lsd_db",
    "filterbank_snr_db",
]


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    digest = cfg.digest()
    model = CodecModel(cfg.model, seed=cfg.train.seed)
    model.load_checkpoint(args.model, expected_digest=digest)
    qmodel = None
    if args.quantizer:
        qmodel = q.QuantizerModel.load(args.quantizer, expected_digest=digest)

    entries = parse_manifest(args.manifest)
    missing = []
    feat = cfg.features
    report = io.StringIO()  # written out whole at the end: a failed run leaves the old report
    writer = csv.writer(report)
    writer.writerow(EVAL_HEADER)
    for entry in entries:
        try:
            audio = load_wav(entry.clean_path)
        except (OSError, FormatError) as exc:
            missing.append(f"{entry.clean_path}: {exc}")
            continue
        frames = log_mel_features(audio, feat)
        if len(frames) == 0:
            missing.append(f"{entry.clean_path}: too short")
            continue
        voicing = voicing_per_frame(audio.samples, feat)
        stats = model.teacher_forced(audio.samples, frames, voicing=voicing[None],
                                     compute_grads=False)
        sigma = stats["sigma_all"][0]  # (T, N)
        voiced = stats["weights"][0] > 0.8  # each step's frame voicing
        sig_v = sigma[voiced]

        lsd = np.nan
        if qmodel is not None:
            decoded = q.decode(q.encode(frames, qmodel), qmodel)
            lsd = q.log_spectral_distortion_db(frames, decoded)
        rebuilt = model.filterbank.round_trip(audio.samples)
        snr = snr_db(audio.samples, rebuilt)
        writer.writerow([
            entry.clean_path,
            f"{stats['nll'] / np.log(2.0):.6f}",
            f"{sigma.mean():.6f}",
            f"{np.percentile(sigma, 90):.6f}",
            f"{np.mean(sig_v):.6f}" if voiced.any() else "nan",
            f"{np.percentile(sig_v, 90):.6f}" if voiced.any() else "nan",
            f"{lsd:.6f}",
            f"{snr:.3f}",
        ])
    write_file_atomic(args.report, report.getvalue().encode())
    for line in missing:
        print(f"missing: {line}", file=sys.stderr)
    print(f"wrote {args.report}")
    return 0


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:  # np.random.default_rng takes no negative seed
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lvrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-quantizer", help="fit the KLT + split VQ artifact")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
    p.add_argument("--synthetic", type=int, default=0,
                   help="add N synthetic clips to the fit data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_quantizer)

    p = sub.add_parser("train", help="train the model")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="wav -> bitstream")
    p.add_argument("--config", required=True)
    p.add_argument("--quantizer", required=True)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="bitstream -> wav")
    p.add_argument("--config", required=True)
    p.add_argument("--quantizer", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="per-utterance metrics CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--quantizer")
    p.add_argument("report")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CodecError) else 2


if __name__ == "__main__":
    sys.exit(main())
