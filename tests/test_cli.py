"""End-to-end command-line behavior: artifacts, bitstreams, exit codes."""

import copy
import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lvrc
from lvrc import cli
from lvrc import quantizer as q
from lvrc.audio import AudioBuffer, load_wav, save_wav
from lvrc.config import paper_config, toy_config
from lvrc.container import read_container, write_container
from lvrc.errors import (CodecError, ConfigError, DigestError, FramingError,
                         NumericError)
from lvrc.model import CHECKPOINT_MAGIC, CodecModel
from lvrc.trainer import synthetic_clip


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Config file, short-trained checkpoint, quantizer artifact, test wav."""
    root = tmp_path_factory.mktemp("cli")
    cfg = toy_config()
    cfg.train.steps = 2
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

    sr = cfg.model.sample_rate
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
        save_wav(empty_wav, AudioBuffer(np.zeros(0), env["cfg"].model.sample_rate))
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
        source_frames = 2 * cfg.model.sample_rate // cfg.model.hop_length + 1
        coded_frames = (source_frames // cfg.quantizer.stack) * cfg.quantizer.stack
        assert len(decoded) == coded_frames * cfg.model.hop_length

    def test_summary_reports_decode_time_and_rtf(self, env, bitstream, capsys):
        out = env["root"] / "timed.wav"
        rc = cli.main([
            "decode", "--config", str(env["cfg_path"]), "--quantizer", str(env["quant"]),
            "--model", str(env["ckpt"]), str(bitstream), str(out),
        ])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(r"decoded (\d+) frames \(([\d.]+) s\) in ([\d.]+) s, "
                             r"RTF ([\d.]+) -> (.+)", line)
        assert match, line
        frames, seconds, wall, rtf, path = match.groups()
        assert float(seconds) == pytest.approx(
            int(frames) * env["cfg"].model.hop_length / env["cfg"].model.sample_rate)
        assert float(wall) > 0.0 and path == str(out)
        assert float(rtf) == pytest.approx(float(wall) / float(seconds), abs=2e-3)

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
        sr = env["cfg"].model.sample_rate
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

    @pytest.mark.parametrize("command", ["encode", "decode", "eval"])
    def test_quantizer_of_another_frame_size_exits_3(self, env, bitstream, tmp_path, capsys,
                                                     command):
        # stack 4 on the 64-dim basis: consistent in itself, but it codes 16-mel frames
        qmodel = q.QuantizerModel.load(env["quant"])
        qmodel.stack = 4
        bad = tmp_path / "stack4.lvrq"
        qmodel.save(bad)
        manifest = tmp_path / "eval.tsv"
        manifest.write_text(f"{env['wav']}\t-\tdev\n")
        rest = {
            "encode": [str(env["wav"]), str(tmp_path / "x.lvrc")],
            "decode": ["--model", str(env["ckpt"]), str(bitstream), str(tmp_path / "x.wav")],
            "eval": ["--model", str(env["ckpt"]), "--manifest", str(manifest),
                     str(tmp_path / "report.csv")],
        }[command]
        rc = cli.main([command, "--config", str(env["cfg_path"]), "--quantizer", str(bad),
                       *rest])
        assert rc == 3
        assert "quantizer codes 16 mels, model takes 32" in capsys.readouterr().err


class TestEval:
    def test_report_schema_and_rows(self, env, tmp_path):
        sr = env["cfg"].model.sample_rate
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

    def test_unvoiced_clip_reports_nan_without_a_warning(self, env, tmp_path):
        sr = env["cfg"].model.sample_rate
        wav = tmp_path / "silence.wav"
        save_wav(wav, AudioBuffer(np.zeros(sr), sr))
        manifest = tmp_path / "eval.tsv"
        manifest.write_text(f"{wav}\t-\tdev\n")
        report = tmp_path / "report.csv"
        out = _python("-m", "lvrc.cli", "eval", "--config", str(env["cfg_path"]),
                      "--model", str(env["ckpt"]), "--manifest", str(manifest), str(report))
        assert out.returncode == 0
        assert "RuntimeWarning" not in out.stderr
        (row,) = csv.DictReader(open(report))
        assert row["sigma_voiced_mean"] == row["sigma_voiced_p90"] == "nan"

    def test_failed_run_leaves_the_earlier_report(self, env, tmp_path, capsys):
        # a 16 kHz WAV under the 8 kHz toy config exits 2 part way through
        sr = env["cfg"].model.sample_rate
        good, wrong = tmp_path / "good.wav", tmp_path / "wide.wav"
        save_wav(good, AudioBuffer(synthetic_clip(np.random.default_rng(10), sr, sr), sr))
        save_wav(wrong, AudioBuffer(np.zeros(2 * sr), 2 * sr))
        manifest = tmp_path / "eval.tsv"
        manifest.write_text(f"{good}\t-\tdev\n{wrong}\t-\tdev\n")
        report = tmp_path / "report.csv"
        report.write_text("an earlier report\n")
        rc = cli.main(["eval", "--config", str(env["cfg_path"]), "--model", str(env["ckpt"]),
                       "--manifest", str(manifest), str(report)])
        assert rc == 2
        assert f"{wrong}: rate 16000 != configured rate 8000" in capsys.readouterr().err
        assert report.read_text() == "an earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "eval.tsv", "good.wav", "report.csv", "wide.wav"]


class TestTrain:
    def test_halt_before_first_checkpoint_leaves_a_resumable_one(self, tmp_path, monkeypatch,
                                                                 capsys):
        cfg = toy_config()
        cfg.train.steps = 4
        cfg.train.batch_size = 2
        cfg.train.checkpoint_interval = 4
        cfg_path = tmp_path / "toy.cfg"
        cfg.save(cfg_path)
        n = cfg.clip_samples
        good = lvrc.trainer.ClipDataset.synthetic(cfg, n_clips=4, n_noises=0)
        nan_clips = classmethod(lambda cls, cfg: cls(cfg, [np.full(n, np.nan)], []))
        monkeypatch.setattr(lvrc.trainer.ClipDataset, "synthetic", nan_clips)

        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")])
        assert rc == 4
        out = capsys.readouterr().out
        assert "halted on non-finite loss at step 1" in out
        # the head passes the NaN rows on, so the loss check names both maxima
        assert "max |h|=" in out and "max |raw|=" in out
        ckpt = out.strip().rsplit("checkpoint: ", 1)[1]
        step, _ = CodecModel(cfg.model).load_checkpoint(ckpt, expected_digest=cfg.digest())
        assert step == 0

        resumed = lvrc.trainer.train(cfg, tmp_path / "resumed", dataset=good, resume_from=ckpt)
        fresh = lvrc.trainer.train(cfg, tmp_path / "fresh", dataset=good)
        assert not resumed.halted
        assert [m["nll"] for m in resumed.metrics] == [m["nll"] for m in fresh.metrics]
        assert ((tmp_path / "resumed" / "model.ckpt").read_bytes()
                == (tmp_path / "fresh" / "model.ckpt").read_bytes())


    def test_halt_prints_the_reason(self, tmp_path, monkeypatch, capsys):
        # a NaN voicing weight leaves the NLL finite and makes the loss NaN
        cfg = toy_config()
        cfg.train.steps = 2
        cfg.train.batch_size = 2
        cfg_path = tmp_path / "toy.cfg"
        cfg.save(cfg_path)
        batch = lvrc.trainer.ClipDataset.batch

        def nan_voicing(self, step):
            audio, mels, voicing = batch(self, step)
            return audio, mels, np.full_like(voicing, np.nan)

        monkeypatch.setattr(lvrc.trainer.ClipDataset, "batch", nan_voicing)
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")])
        assert rc == 4
        line = capsys.readouterr().out.strip()
        assert line.startswith("halted on non-finite loss at step 1 (non-finite loss (nll=")
        assert "jvar=nan" in line and "max |h|=" in line and "max |raw|=" in line
        assert line.endswith(f"checkpoint: {tmp_path / 'run' / 'model.ckpt'}")

    def test_resume_from_a_malformed_optimizer_state_exits_3(self, env, tmp_path, capsys):
        digest, arrays = read_container(env["ckpt"], CHECKPOINT_MAGIC)
        arrays["adam_m/out.b"] = np.zeros(3)
        bad = tmp_path / "bad.ckpt"
        write_container(bad, CHECKPOINT_MAGIC, digest, arrays)
        cfg = copy.deepcopy(env["cfg"])
        cfg.train.steps += 1  # the resume runs a step, which a bad slot would crash
        cfg_path = tmp_path / "toy.cfg"
        cfg.save(cfg_path)
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run"),
                       "--resume", str(bad)])
        assert rc == 3
        assert "optimizer state shape mismatch for out.b" in capsys.readouterr().err

    def test_empty_noise_file_exits_2_without_traceback(self, env, tmp_path):
        sr = env["cfg"].model.sample_rate
        clean, noise = tmp_path / "clean.wav", tmp_path / "noise.wav"
        save_wav(clean, AudioBuffer(synthetic_clip(np.random.default_rng(4), sr, sr), sr))
        save_wav(noise, AudioBuffer(np.zeros(0), sr))
        manifest = tmp_path / "train.tsv"
        manifest.write_text(f"{clean}\t{noise}\ttrain\n")
        out = _python("-m", "lvrc.cli", "train", "--config", str(env["cfg_path"]),
                      "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"))
        assert out.returncode == 2
        assert f"{noise}: noise file has no samples" in out.stderr
        assert "Traceback" not in out.stderr


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

    def test_non_positive_interval_exits_2_without_traceback(self, tmp_path):
        cfg_path = tmp_path / "toy.cfg"
        cfg = toy_config()
        cfg.train.checkpoint_interval = 0  # to_text writes it unvalidated
        cfg_path.write_text(cfg.to_text())
        out = _python("-m", "lvrc.cli", "train", "--config", str(cfg_path),
                      "--out-dir", str(tmp_path / "run"))
        assert out.returncode == 2
        assert "error: checkpoint_interval must be positive" in out.stderr
        assert "Traceback" not in out.stderr

    def test_huge_snr_range_exits_2_without_traceback(self, tmp_path):
        # finite bounds, but rng.uniform's range overflows: OverflowError, exit 1
        cfg_path = tmp_path / "toy.cfg"
        cfg = toy_config()
        cfg.train.snr_min, cfg.train.snr_max = -1e308, 1e308
        cfg_path.write_text(cfg.to_text())
        out = _python("-m", "lvrc.cli", "train", "--config", str(cfg_path),
                      "--out-dir", str(tmp_path / "run"))
        assert out.returncode == 2
        assert "error: snr_max - snr_min must be finite" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("key,value", [("features.window_ms", "80.0"),
                                           ("features.hop_ms", "20.0"),
                                           ("model.frame_rate", "50")])
    def test_frame_grid_key_exits_2(self, tmp_path, capsys, key, value):
        # the window, hop and frame rate are module constants, not keys
        lines = [line for line in toy_config().to_text().splitlines()
                 if not line.startswith(key + " ")]
        cfg_path = tmp_path / "toy.cfg"
        cfg_path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        rc = cli.main(["fit-quantizer", "--config", str(cfg_path), "--synthetic", "4",
                       "--out", str(tmp_path / "q.lvrq")])
        assert rc == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("exc,code", [
        (CodecError("boom"), 1), (ConfigError("boom"), 2), (OSError("boom"), 2),
        (DigestError("boom"), 3), (FramingError("boom"), 3), (NumericError("boom"), 4),
    ])
    def test_exit_code_table(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_encode", fail)
        rc = cli.main(["encode", "--config", "c.cfg", "--quantizer", "q.lvrq", "in", "out"])
        assert rc == code
        assert capsys.readouterr().err == "error: boom\n"



@pytest.mark.parametrize("case", ["train.seed", "quantizer.seed", "--seed"])
def test_negative_seed_exits_2_without_traceback(env, tmp_path, case):
    # np.random.default_rng raises ValueError for a negative seed
    cfg = copy.deepcopy(env["cfg"])
    if case == "train.seed":
        cfg.train.seed = -1
        command = ["train", "--out-dir", str(tmp_path / "run")]
    elif case == "quantizer.seed":
        cfg.quantizer.seed = -5
        command = ["fit-quantizer", "--synthetic", "4", "--out", str(tmp_path / "q.lvrq")]
    else:
        command = ["decode", "--quantizer", str(env["quant"]), "--model", str(env["ckpt"]),
                   "--seed", "-1", str(env["wav"]), str(tmp_path / "out.wav")]
    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(cfg.to_text())  # to_text writes it unvalidated
    out = _python("-m", "lvrc.cli", *command, "--config", str(cfg_path))
    assert out.returncode == 2
    assert "seed" in out.stderr and "must be >= 0" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("bad", ["config", "manifest"])
def test_non_utf8_file_exits_2_without_traceback(env, tmp_path, bad):
    cfg_path, manifest = tmp_path / "toy.cfg", tmp_path / "train.tsv"
    cfg_path.write_text(env["cfg"].to_text())
    manifest.write_text(f"{env['wav']}\t-\ttrain\n")
    target = cfg_path if bad == "config" else manifest
    target.write_bytes(target.read_bytes() + b"# caf\xe9\n")  # a Latin-1 byte
    out = _python("-m", "lvrc.cli", "fit-quantizer", "--config", str(cfg_path),
                  "--manifest", str(manifest), "--out", str(tmp_path / "q.lvrq"))
    assert out.returncode == 2
    assert f"error: {target}: not UTF-8 text" in out.stderr
    assert "Traceback" not in out.stderr


def _python(*args):
    """A fresh interpreter run on the lvrc under test, output captured."""
    src = os.path.dirname(os.path.dirname(lvrc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


SCIPY_IN_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cold_start_imports_no_scipy():
    """The CLI and a model build load no scipy module: lvrc runs on numpy alone."""
    code = (
        "import sys, lvrc.cli\n"
        "from lvrc.config import toy_config\n"
        "from lvrc.model import CodecModel\n"
        "CodecModel(toy_config().model)\n"
        f"print({SCIPY_IN_MODULES})\n"
    )
    out = _python("-c", code)
    out.check_returncode()
    assert out.stdout.strip() == "[]"


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    """fit-quantizer -> train -> encode -> decode -> eval each exit 0 in an
    interpreter where importing scipy raises ImportError."""
    cfg = toy_config()
    cfg.train.steps = 2
    cfg.train.batch_size = 8
    cfg.save(tmp_path / "toy.cfg")
    sr = cfg.model.sample_rate
    wav = tmp_path / "tone.wav"
    save_wav(wav, AudioBuffer(synthetic_clip(np.random.default_rng(5), sr, sr), sr))
    (tmp_path / "eval.tsv").write_text(f"{wav}\t-\tdev\n")
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from lvrc import cli\n"
        "d = sys.argv[1]\n"
        "c, q, m = ['--config', d + '/toy.cfg'], d + '/toy.lvrq', d + '/run/model.ckpt'\n"
        "runs = [['fit-quantizer', *c, '--synthetic', '16', '--out', q],\n"
        "        ['train', *c, '--out-dir', d + '/run'],\n"
        "        ['encode', *c, '--quantizer', q, d + '/tone.wav', d + '/tone.lvrc'],\n"
        "        ['decode', *c, '--quantizer', q, '--model', m, d + '/tone.lvrc', d + '/out.wav'],\n"
        "        ['eval', *c, '--model', m, '--quantizer', q, '--manifest', d + '/eval.tsv',\n"
        "         d + '/report.csv']]\n"
        "print([cli.main(r) for r in runs])\n"
        f"print({SCIPY_IN_MODULES})\n"
    )
    out = _python("-c", code, str(tmp_path))
    out.check_returncode()
    assert out.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"], out.stderr
    assert len(load_wav(tmp_path / "out.wav").samples) == sr
