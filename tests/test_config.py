"""Config file parsing, digest stability, validation."""

from pathlib import Path

import pytest

from lvrc.config import CodecConfig, load_config, parse_config, paper_config, toy_config
from lvrc.errors import ConfigError


def test_text_round_trip():
    cfg = toy_config()
    parsed = parse_config(cfg.to_text())
    assert parsed.digest() == cfg.digest()
    assert parsed.model.gru_state == cfg.model.gru_state
    assert parsed.model.mel_fmax == cfg.model.mel_fmax
    # the mel frontend lives in the model section; `features` is only a read-only alias
    assert parsed.features is parsed.model
    assert not any(key.startswith("features.") for key, _ in parsed.items())


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model.flux_capacitor = 1\n")


@pytest.mark.parametrize("line", [
    "features.fft_size = 0",
    "features.log_floor = 1e-10",
    "model.mel_offset = 11.5",
    "model.mel_scale = 0.125",
    "quantizer.kmeans_iters = 50",
    "quantizer.kmeans_tol = 1e-06",
    "train.beta1 = 0.9",
    "train.beta2 = 0.999",
    "train.adam_eps = 1e-08",
    "model.dtype = float64",  # the model is float64; only generate() takes a dtype
    "features.window_ms = 80.0",  # one frame grid: config.WINDOW_MS, HOP_MS, FRAME_RATE
    "features.hop_ms = 20.0",
    "model.frame_rate = 50",
    "features.mel_fmin = 0.0",  # config.MEL_FMIN
    # the features section folded into model: one sample rate, one mel count
    "features.sample_rate = 16000",
    "features.n_mels = 160",
    "features.mel_fmax = 0.0",  # now model.mel_fmax
])
def test_constant_keys_rejected(line):
    # module constants or folded keys: a file that names one predates the 32-key set
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(line + "\n")


def test_digest_stable_under_reordering():
    cfg = paper_config()
    lines = cfg.to_text().strip().splitlines()
    shuffled = "\n".join(reversed(lines))
    assert parse_config(shuffled).digest() == cfg.digest()


def test_digest_sensitive_to_architecture_not_training():
    base = toy_config()
    trained_differently = toy_config()
    trained_differently.train.nu = 0.5
    trained_differently.train.steps = 99999
    assert trained_differently.digest() == base.digest()
    other_model = toy_config()
    other_model.model.n_mix = 8
    assert other_model.digest() != base.digest()


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("model.gru_state = many\n")
    for bad in ("train.reg_bands = 0", "train.reg_bands = 5",
                "model.n_mix = 0",
                "model.gru_blocks = 0",
                "model.gru_blocks = -2",
                "train.nu = nan",
                "train.lr = inf",
                "train.var_floor = 0",  # ln(sigma + var_floor) needs a positive floor
                "train.var_floor = -0.001",
                "train.lr = 0",
                "train.lr = -0.001",
                "model.fb_taps = 100",  # not a multiple of 2 * n_bands
                "model.n_bands = 1\ntrain.reg_bands = 1",
                "model.mel_fmax = -5",
                "model.mel_fmax = 9000",  # above the 8 kHz Nyquist
                # no mel frame in a training clip: 2 and 1264 samples, under the 1280 window
                "train.clip_seconds = 0.0001",
                "train.clip_seconds = 0.079",
                "quantizer.bits_per_supervector = 1281",  # 160 splits of <= 8 bits
                "quantizer.bits_per_supervector = 0",  # no payload bounds the header's count
                "quantizer.seed = -5",  # np.random.default_rng takes no negative seed
                "train.seed = -1",
                # finite bounds whose range overflows rng.uniform
                "train.snr_min = -1e308\ntrain.snr_max = 1e308",
                "train.nu = 0.01\ntrain.nu = 0.01"):  # a key set twice, even to one value
        with pytest.raises(ConfigError):
            parse_config(bad + "\n")
    cfg = toy_config()
    cfg.model.mel_fmax = 6000.0  # above the toy preset's 4 kHz Nyquist
    with pytest.raises(ConfigError, match="mel band"):
        cfg.validate()


@pytest.mark.parametrize("lines", [
    "train.checkpoint_interval = 0",
    "train.prune_interval = 0\ntrain.pruning = true",
    "train.batch_size = 0",
    "train.clip_seconds = 0.0",
    "model.gru_state = 0",
    "model.cond_channels = 0",
    "model.n_bands = 0",
    "train.steps = 0",  # unchecked, no step runs and training exits 0
    "train.steps = -1",
])
def test_non_positive_sizes_rejected(lines):
    # unchecked, each of these crashes training with a ZeroDivisionError or ValueError
    with pytest.raises(ConfigError, match="must be"):
        parse_config(lines + "\n")


def test_tile_factor_consistency_checked():
    cfg = toy_config()
    # 8800 / 4 bands = 2200 Hz: 8 x the 50 Hz frame rate no longer divides the band rate
    cfg.model.sample_rate = 8800
    with pytest.raises(ConfigError, match="band rate"):
        cfg.validate()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nmodel.gru_state = 32  # inline\n")
    assert cfg.model.gru_state == 32


def test_paper_preset_headline_numbers():
    cfg = paper_config()
    assert cfg.model.sample_rate == 16000
    assert cfg.model.n_mels == 160
    assert cfg.model.hop_length == 320  # 20 ms
    assert cfg.model.window_length == 1280  # 80 ms
    assert cfg.model.n_bands == 4
    assert cfg.model.n_mix == 8
    assert cfg.model.gru_state == 1024
    assert cfg.model.tile_factor == 10
    assert cfg.quantizer.bits_per_supervector == 120
    assert cfg.quantizer.stack == 2
    assert cfg.train.snr_min == 0.0 and cfg.train.snr_max == 40.0
    assert cfg.train.target_sparsity == 0.92


@pytest.mark.parametrize("name,preset", [("toy", toy_config), ("paper", paper_config)])
def test_shipped_config_matches_preset(name, preset):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    assert load_config(path).to_text() == preset().to_text()
