"""End-to-end command-line behavior: artifacts, bitstreams, exit codes."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import lvrc
from lvrc import cli
from lvrc import quantizer as q
from lvrc.audio import AudioBuffer, load_wav, save_wav
from lvrc.config import paper_config, toy_config
from lvrc.model import CodecModel
from lvrc.trainer import synthetic_clip


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Config file, short-trained checkpoint, quantizer artifact, test wav."""
    root = tmp_path_factory.mktemp("cli")
    cfg = toy_config()
    cfg.train.steps = 60
    cfg.train.batch_size = 8
    cfg.train.lr = 2e-3
    cfg.train.checkpoint_interval = 60
    cfg_path = root / "toy.cfg"
    cfg.save(cfg_path)

    rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(root / "run")])
    assert rc == 0
    ckpt = root / "run" / "model.ckpt"

    quant = root / "toy.lvrq"
    rc = cli.main([
        "fit-quantizer", "--config", str(cfg_path), "--synthetic", "24",
        "--out", str(quant),
    ])
    assert rc == 0

    sr = cfg.features.sample_rate
    rng = np.random.default_rng(123)
    wav = root / "tone.wav"
    save_wav(wav, AudioBuffer(synthetic_clip(rng, sr, sr * 2), sr))
    return {"root": root, "cfg": cfg, "cfg_path": cfg_path, "ckpt": ckpt,
            "quant": quant, "wav": wav}


class TestFitQuantizer:
    def test_artifact_reusable_and_deterministic(self, env, capsys):
        out2 = env["root"] / "toy2.lvrq"
        rc = cli.main([
            "fit-quantizer", "--config", str(env["cfg_path"]), "--synthetic", "24",
            "--out", str(out2),
        ])
        assert rc == 0
        assert out2.read_bytes() == env["quant"].read_bytes()
        total = env["cfg"].quantizer.bits_per_supervector
        assert f"total = {total} bits" in capsys.readouterr().out

    def test_paper_config_prints_120_bits(self, tmp_path, capsys):
        cfg = paper_config()
        cfg.train.clip_seconds = 2.0
        cfg_path = tmp_path / "paper.cfg"
        cfg.save(cfg_path)
        rc = cli.main([
            "fit-quantizer", "--config", str(cfg_path), "--synthetic", "20",
            "--out", str(tmp_path / "paper.lvrq"),
        ])
        assert rc == 0
        assert "total = 120 bits" in capsys.readouterr().out

    def test_no_data_is_usage_error(self, env, capsys):
        rc = cli.main([
            "fit-quantizer", "--config", str(env["cfg_path"]),
            "--out", str(env["root"] / "x.lvrq"),
        ])
        assert rc == 2


class TestEncode:
    def test_bitrate_printed(self, env, capsys):
        out = env["root"] / "tone.lvrc"
        rc = cli.main([
            "encode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            str(env["wav"]), str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "payload bits" in text and "b/s" in text
        assert out.stat().st_size >= 17

    def test_empty_wav_header_only(self, env):
        empty_wav = env["root"] / "empty.wav"
        save_wav(empty_wav, AudioBuffer(np.zeros(0), env["cfg"].features.sample_rate))
        out = env["root"] / "empty.lvrc"
        rc = cli.main([
            "encode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            str(empty_wav), str(out),
        ])
        assert rc == 0
        blob = out.read_bytes()
        assert len(blob) == 17  # magic, version, digest, zero frame count
        assert blob[13:17] == b"\x00\x00\x00\x00"

    def test_corrupt_quantizer_digest_exits_3(self, env):
        bad = env["root"] / "bad.lvrq"
        blob = bytearray(env["quant"].read_bytes())
        blob[6] ^= 0xFF  # flip a digest byte
        bad.write_bytes(bytes(blob))
        rc = cli.main([
            "encode", "--config", str(env["cfg_path"]), "--quantizer", str(bad),
            str(env["wav"]), str(env["root"] / "x.lvrc"),
        ])
        assert rc == 3

    def test_truncated_wav_exits_3(self, env):
        bad = env["root"] / "trunc.wav"
        bad.write_bytes(env["wav"].read_bytes()[:-50])
        rc = cli.main([
            "encode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            str(bad), str(env["root"] / "trunc_wav.lvrc"),
        ])
        assert rc == 3

    def test_rate_mismatch_exits_2(self, env):
        wav = env["root"] / "wrong_rate.wav"
        save_wav(wav, AudioBuffer(np.zeros(1000), 44100))
        rc = cli.main([
            "encode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            str(wav), str(env["root"] / "y.lvrc"),
        ])
        assert rc == 2


@pytest.fixture(scope="module")
def bitstream(env):
    out = env["root"] / "decode_me.lvrc"
    rc = cli.main([
        "encode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
        str(env["wav"]), str(out),
    ])
    assert rc == 0
    return out


class TestDecode:
    def test_duration_contract(self, env, bitstream):
        out = env["root"] / "decoded.wav"
        rc = cli.main([
            "decode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            "--model", str(env["ckpt"]), "--seed", "7", str(bitstream), str(out),
        ])
        assert rc == 0
        decoded = load_wav(out)
        cfg = env["cfg"]
        source_frames = 2 * cfg.features.sample_rate // cfg.features.hop_length + 1
        coded_frames = (source_frames // cfg.quantizer.stack) * cfg.quantizer.stack
        assert len(decoded) == coded_frames * cfg.features.hop_length

    def test_same_seed_bit_identical(self, env, bitstream):
        a, b = env["root"] / "a.wav", env["root"] / "b.wav"
        for out in (a, b):
            rc = cli.main([
                "decode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
                "--model", str(env["ckpt"]), "--seed", "11", str(bitstream), str(out),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_decode_never_reads_source_wav(self, env, tmp_path):
        # black-box contract: the wav is deleted before decoding its bitstream
        sr = env["cfg"].features.sample_rate
        wav = tmp_path / "gone.wav"
        save_wav(wav, AudioBuffer(synthetic_clip(np.random.default_rng(5), sr, sr), sr))
        stream = tmp_path / "gone.lvrc"
        rc = cli.main([
            "encode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            str(wav), str(stream),
        ])
        assert rc == 0
        wav.unlink()
        rc = cli.main([
            "decode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            "--model", str(env["ckpt"]), str(stream), str(tmp_path / "out.wav"),
        ])
        assert rc == 0

    def test_truncated_bitstream_exits_3(self, env, bitstream):
        bad = env["root"] / "trunc.lvrc"
        bad.write_bytes(bitstream.read_bytes()[:-2])
        rc = cli.main([
            "decode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            "--model", str(env["ckpt"]), str(bad), str(env["root"] / "t.wav"),
        ])
        assert rc == 3

    def test_quantizer_of_another_frame_size_exits_3(self, env, bitstream, tmp_path):
        # stack 4 on the 64-dim basis: consistent in itself, but it decodes 16-mel frames
        qmodel = q.QuantizerModel.load(env["quant"])
        qmodel.stack = 4
        bad = tmp_path / "stack4.lvrq"
        qmodel.save(bad)
        rc = cli.main([
            "decode", "--config", str(env["cfg_path"]), "--quantizer", str(bad),
            "--model", str(env["ckpt"]), str(bitstream), str(tmp_path / "x.wav"),
        ])
        assert rc == 3


class TestEval:
    def test_report_schema_and_rows(self, env, tmp_path):
        sr = env["cfg"].features.sample_rate
        rng = np.random.default_rng(9)
        names = []
        for i in range(3):
            wav = tmp_path / f"utt{i}.wav"
            save_wav(wav, AudioBuffer(synthetic_clip(rng, sr, sr), sr))
            names.append(str(wav))
        manifest = tmp_path / "eval.tsv"
        manifest.write_text("".join(f"{n}\t-\tdev\n" for n in names))
        report = tmp_path / "report.csv"
        rc = cli.main([
            "eval", "--config", str(env["cfg_path"]), "--model", str(env["ckpt"]),
            "--manifest", str(manifest), "--quantizer", str(env["quant"]), str(report),
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(report)))
        assert len(rows) == 3
        assert [r["utterance"] for r in rows] == names  # manifest order
        for row in rows:
            assert float(row["sigma_mean"]) >= 0.0
            assert float(row["sigma_p90"]) >= 0.0
            assert float(row["filterbank_snr_db"]) >= 40.0

    def test_missing_files_listed_partial_report(self, env, tmp_path, capsys):
        manifest = tmp_path / "eval.tsv"
        manifest.write_text("/nonexistent/x.wav\t-\tdev\n")
        report = tmp_path / "report.csv"
        rc = cli.main([
            "eval", "--config", str(env["cfg_path"]), "--model", str(env["ckpt"]),
            "--manifest", str(manifest), str(report),
        ])
        assert rc == 0
        assert "missing" in capsys.readouterr().err
        assert report.exists()
        assert len(list(csv.DictReader(open(report)))) == 0


class TestTrain:
    def test_halt_before_first_checkpoint_leaves_a_resumable_one(self, tmp_path, monkeypatch,
                                                                 capsys):
        cfg = toy_config()
        cfg.train.steps = 4
        cfg.train.batch_size = 2
        cfg.train.checkpoint_interval = 4
        cfg_path = tmp_path / "toy.cfg"
        cfg.save(cfg_path)
        n = int(round(cfg.train.clip_seconds * cfg.features.sample_rate))
        good = lvrc.trainer.ClipDataset.synthetic(cfg, n_clips=4, n_noises=0)
        nan_clips = classmethod(lambda cls, cfg: cls(cfg, [np.full(n, np.nan)], []))
        monkeypatch.setattr(lvrc.trainer.ClipDataset, "synthetic", nan_clips)

        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")])
        assert rc == 4
        out = capsys.readouterr().out
        assert "halted on non-finite loss at step 1" in out
        ckpt = out.strip().rsplit("checkpoint: ", 1)[1]
        step, _ = CodecModel(cfg.model).load_checkpoint(ckpt, expected_digest=cfg.digest())
        assert step == 0

        resumed = lvrc.trainer.train(cfg, tmp_path / "resumed", dataset=good, resume_from=ckpt)
        fresh = lvrc.trainer.train(cfg, tmp_path / "fresh", dataset=good)
        assert not resumed.halted
        assert [m["nll"] for m in resumed.metrics] == [m["nll"] for m in fresh.metrics]
        assert ((tmp_path / "resumed" / "model.ckpt").read_bytes()
                == (tmp_path / "fresh" / "model.ckpt").read_bytes())


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_exits_2(self, env):
        rc = cli.main([
            "encode", "--config", "/nonexistent.cfg", "--quantizer", str(env["quant"]),
            str(env["wav"]), "/tmp/x.lvrc",
        ])
        assert rc == 2


def test_cold_start_imports_no_heavy_scipy_module():
    """The CLI and a model build load scipy.special only: each heavy module costs ~1 s."""
    code = (
        "import sys, lvrc.cli\n"
        "from lvrc.config import toy_config\n"
        "from lvrc.model import CodecModel\n"
        "CodecModel(toy_config().model)\n"
        "heavy = ('scipy.signal', 'scipy.optimize', 'scipy.stats', 'scipy.interpolate')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(lvrc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
