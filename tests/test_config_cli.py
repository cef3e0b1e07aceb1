from __future__ import annotations

import dataclasses
import json
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from fedvi import bounds, cli, config, federation
from fedvi.bounds import PacBayesConfig
from fedvi.cli import load_params, main, read_metrics, save_params
from fedvi.config import ConfigError, parse_config, parse_config_text
from fedvi.federation import TrainConfig
from fedvi.model import ArchConfig, init_params
from fedvi.nn import NonFiniteError
from fedvi.seeding import DOMAIN_BOUND_CHECK, substream

from conftest import small_arch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
[run]
seed = 4
"""

SMALL_RUN = """
[data]
clients = 8
holdout = 2
n_min = 40
n_max = 60
input_dim = 5
num_classes = 3
sigma_beta = 1.0
input_shift_scale = 0.5

[arch]
embed_widths = 8,6
local_dim = 2
global_dim = 4
posterior_widths = 8,8

[train]
rounds = 4
cohort_size = 3
batch_size = 16
eval_every = 2
client_lr = 0.01

[bound]
slack_samples = 20
posterior_samples = 4
trials = 4

[run]
seed = 9
label = t
"""


class TestParseConfig:
    def test_minimal_file_gets_all_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.seed == 4
        assert cfg.train.rounds == 200
        assert cfg.train.algorithm == "fedvi"
        assert cfg.arch.support_fraction == 0.5
        assert cfg.gen is not None and cfg.gen.holdout_count == 8
        rendered = cfg.render()
        assert "client_lr = " in rendered and "scale_floor = " in rendered

    def test_xdevice_cfg_has_femnist_shape(self):
        # thousands of small clients and 62 classes; parsed only, since
        # generating it takes about 0.4 GB
        cfg = parse_config(CONFIGS / "xdevice.cfg")
        assert (cfg.gen.c, cfg.gen.holdout_count, cfg.gen.n_range) == (3500, 350, (100, 350))
        assert (cfg.gen.num_classes, cfg.arch.posterior_out_dim) == (62, 1054)
        assert (cfg.train.cohort_size, cfg.train.batch_size) == (50, 32)

    def test_unknown_key_names_key_and_line(self):
        text = "[train]\nrounds = 5\nwarmup = 3\n"
        with pytest.raises(ConfigError, match=r":3: unknown key 'train.warmup'"):
            parse_config_text(text)

    def test_type_error_names_key_and_line(self):
        text = "[train]\nrounds = soon\n"
        with pytest.raises(ConfigError, match=r":2: key 'train.rounds'"):
            parse_config_text(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r":1: unknown section"):
            parse_config_text("[optimizer]\nlr = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("[train]\nrounds = 1\nrounds = 2\n")

    def test_cohort_larger_than_participants(self):
        text = "[data]\nclients = 10\nholdout = 4\n[train]\ncohort_size = 7\n"
        with pytest.raises(ConfigError, match="cohort_size = 7 exceeds"):
            parse_config_text(text)

    def test_reference_hyperparameters_round_trip(self):
        text = (
            "[data]\nclients = 3400\nholdout = 20\n"
            "[train]\ntau = 1e-9\nclient_lr = 0.02\nserver_lr = 3.0\n"
            "server_momentum = 0.9\nrounds = 1500\nbatch_size = 256\ncohort_size = 100\n"
        )
        cfg = parse_config_text(text)
        assert cfg.train.tau == 1e-9
        assert cfg.train.client_lr == 0.02
        assert cfg.train.server_lr == 3.0
        assert cfg.train.server_momentum == 0.9
        assert cfg.train.rounds == 1500
        assert cfg.train.batch_size == 256
        again = parse_config_text(cfg.render())
        assert again.values == cfg.values

    def test_render_parse_is_identity(self):
        cfg = parse_config_text(SMALL_RUN)
        again = parse_config_text(cfg.render())
        assert again.values == cfg.values

    def test_overrides_apply(self):
        cfg = parse_config_text(
            SMALL_RUN,
            overrides={
                ("run", "seed"): 77,
                ("train", "algorithm"): "fedavg",
                ("train", "tau"): 0.5,
            },
        )
        assert cfg.seed == 77 and cfg.train.seed == 77
        assert cfg.train.algorithm == "fedavg"
        assert cfg.train.tau == 0.5

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown override key"):
            parse_config_text(SMALL_RUN, overrides={("train", "warmup"): 3})

    def test_file_source_requires_path(self):
        with pytest.raises(ConfigError, match="data.path"):
            parse_config_text("[data]\nsource = file\n")

    def test_dataclass_defaults_equal_an_empty_config(self):
        cfg = parse_config_text("[run]\nseed = 0\n")
        assert cfg.arch == ArchConfig(input_dim=16, num_classes=5)
        assert cfg.train == TrainConfig(seed=0)
        assert cfg.pac == PacBayesConfig()

    def test_schema_rows_are_the_dataclass_fields(self):
        derived = {"arch": ArchConfig, "train": TrainConfig, "bound": PacBayesConfig}
        for section, cls in derived.items():
            keys = [key for sec, key in config.SCHEMA if sec == section and key != "trials"]
            names = [f.name for f in dataclasses.fields(cls)]
            assert keys == [n for n in names if n not in ("input_dim", "num_classes", "seed")]

    def test_field_without_a_default_cannot_be_a_config_key(self):
        @dataclasses.dataclass
        class Settings:
            width: int

        with pytest.raises(TypeError, match="Settings.width needs a default"):
            config._field_rows("arch", Settings)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[bound]\neta = inf\n", "bound.eta = inf"),
            ("[data]\nsigma_beta = nan\n", "data.sigma_beta = nan"),
            ("[arch]\nmean_damp = -inf\n", "arch.mean_damp = -inf"),
        ],
    )
    def test_non_finite_float_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"{re.escape(key)} is not finite"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[run]\nseed = -1\n", "run.seed = -1"),
            ("[data]\ndata_seed = -3\n", "data.data_seed = -3"),
        ],
    )
    def test_negative_seed_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"{key} is negative"):
            parse_config_text(text)


class TestParamsFile:
    def test_round_trip(self, tmp_path, rng):
        params = init_params(small_arch(), rng)
        path = tmp_path / "p.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.arch == params.arch
        for (name_a, a), (name_b, b) in zip(params.blocks.items(), loaded.blocks.items()):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_block_bytes_are_the_flat_vector_in_order(self, tmp_path, rng):
        params = init_params(small_arch(), rng)
        path = tmp_path / "p.bin"
        save_params(params, path)
        blob = path.read_bytes()
        (arch_len,) = struct.unpack("<I", blob[8:12])
        pos = 12 + arch_len + 4
        data = []
        for name, block in params.blocks.items():
            (name_len,) = struct.unpack("<I", blob[pos : pos + 4])
            assert blob[pos + 4 : pos + 4 + name_len].decode("utf-8") == name
            pos += 4 + name_len
            (ndim,) = struct.unpack("<I", blob[pos : pos + 4])
            pos += 4 + 8 * ndim
            data.append(blob[pos : pos + 8 * block.size])
            pos += 8 * block.size
        assert pos == len(blob)
        assert b"".join(data) == params.flat.astype("<f8").tobytes()
        loaded = load_params(path)
        assert loaded.flat.flags.writeable and np.array_equal(loaded.flat, params.flat)

    def test_truncation_detected(self, tmp_path, rng):
        params = init_params(small_arch(), rng)
        path = tmp_path / "p.bin"
        save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(cli.ParamsFormatError):
            load_params(path)

    def test_version_bump_detected(self, tmp_path, rng):
        params = init_params(small_arch(), rng)
        path = tmp_path / "p.bin"
        save_params(params, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 42  # version word follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(cli.ParamsFormatError, match="version"):
            load_params(path)

    @staticmethod
    def _edit_header(path, edit):
        """Replace the arch header with ``edit(header dict)``, bytes or a dict."""
        blob = path.read_bytes()
        (arch_len,) = struct.unpack("<I", blob[8:12])
        text = edit(json.loads(blob[12 : 12 + arch_len]))
        if isinstance(text, dict):
            text = json.dumps(text, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + arch_len :])

    @classmethod
    def _with_dropout_header(cls, path, rate):
        """Rewrite the arch header as files written before dropout's removal
        carried it."""
        cls._edit_header(path, lambda arch: {**arch, "dropout_rate": rate})

    def test_old_header_with_zero_dropout_loads(self, tmp_path, rng):
        params = init_params(small_arch(), rng)
        path = tmp_path / "p.bin"
        save_params(params, path)
        assert b"dropout_rate" not in path.read_bytes()
        self._with_dropout_header(path, 0.0)
        loaded = load_params(path)
        assert loaded.arch == params.arch
        for a, b in zip(params.blocks.values(), loaded.blocks.values()):
            assert np.array_equal(a, b)

    def test_old_header_with_nonzero_dropout_rejected(self, tmp_path, rng):
        path = tmp_path / "p.bin"
        save_params(init_params(small_arch(), rng), path)
        self._with_dropout_header(path, 0.25)
        with pytest.raises(cli.ParamsFormatError, match="dropout_rate"):
            load_params(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(cli.ParamsFormatError, match="magic"):
            load_params(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arch: {k: v for k, v in arch.items() if k != "scale_floor"},
            lambda arch: b"input_dim = 5",
            lambda arch: {**arch, "local_dim": 0},
            lambda arch: {**arch, "hidden_act": "tanh"},
            lambda arch: {**arch, "embed_widths": [0, 6]},
            lambda arch: {**arch, "posterior_widths": [8, 0]},
        ],
        ids=[
            "missing-key", "not-json", "invalid-value", "unknown-key",
            "zero-embed-width", "zero-posterior-width",
        ],
    )
    def test_malformed_header_is_a_format_error(self, edit, tmp_path, rng):
        path = tmp_path / "p.bin"
        save_params(init_params(small_arch(), rng), path)
        self._edit_header(path, edit)
        with pytest.raises(cli.ParamsFormatError, match="architecture header"):
            load_params(path)
        args = ["--config", write_cfg(tmp_path), "--out", str(tmp_path), "--params", str(path)]
        assert main(["bound", *args]) == cli.EXIT_IO

    def _fails_to_load(self, path, tmp_path, match):
        """``load_params`` raises a format error and ``fedvi eval`` exits 3."""
        with pytest.raises(cli.ParamsFormatError, match=match):
            load_params(path)
        args = ["--config", write_cfg(tmp_path), "--out", str(tmp_path), "--params", str(path)]
        assert main(["eval", *args]) == cli.EXIT_IO

    def test_block_name_that_is_not_utf8(self, tmp_path, rng):
        path = tmp_path / "p.bin"
        save_params(init_params(small_arch(), rng), path)
        blob = bytearray(path.read_bytes())
        (arch_len,) = struct.unpack("<I", blob[8:12])
        blob[12 + arch_len + 8] = 0xFF  # first byte of the first block's name
        path.write_bytes(bytes(blob))
        self._fails_to_load(path, tmp_path, "not UTF-8")

    @pytest.mark.parametrize(
        "old, new, match",
        [
            (b"cls.W", b"cls.V", "'cls.V'"),
            (b"widths\": [8, 8]", b"widths\": [8, 9]", r"shape \(8, 8\)"),
            (b"widths\": [8, 8]", b"widths\": [8]   ", r"12 parameter blocks; .* has 10"),
        ],
        ids=["name", "shape", "count"],
    )
    def test_blocks_must_match_the_header_architecture(self, old, new, match, tmp_path, rng):
        # The header's posterior_widths edits keep its length, so only the
        # architecture it describes changes.
        path = tmp_path / "p.bin"
        save_params(init_params(small_arch(), rng), path)
        blob = path.read_bytes()
        edited = blob.replace(old, new)
        assert edited != blob and len(edited) == len(blob)
        path.write_bytes(edited)
        self._fails_to_load(path, tmp_path, match)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda blob: blob + b"\x00", "1 bytes after the last block"),
            (
                lambda blob: blob[:-8] + struct.pack("<d", float("nan")),
                "'cls.b' contains non-finite",
            ),
        ],
        ids=["trailing-bytes", "nan"],
    )
    def test_corrupt_values_are_a_format_error(self, edit, match, tmp_path, rng):
        path = tmp_path / "p.bin"
        save_params(init_params(small_arch(), rng), path)
        path.write_bytes(edit(path.read_bytes()))
        self._fails_to_load(path, tmp_path, match)


class TestFileFormats:
    """Literal bytes of two outputs, so that a refactor that changes either fails here."""

    def test_params_header_bytes(self, tmp_path, rng):
        path = tmp_path / "p.bin"
        save_params(init_params(small_arch(), rng), path)
        header = (
            b'{"embed_widths": [7, 6], "global_dim": 4, "input_dim": 5, "local_dim": 2, '
            b'"logscale_damp": 2.0, "mean_damp": 2.0, "num_classes": 3, '
            b'"posterior_widths": [8, 8], "scale_floor": 1e-05, "support_fraction": 0.5}'
        )
        blob = path.read_bytes()
        assert blob[: 12 + len(header)] == b"FVPM" + struct.pack("<II", 1, len(header)) + header

    def test_provenance_lines_of_heterogeneous_cfg(self):
        expected = """\
[data]
source = generate
clients = 40
holdout = 8
n_min = 200
n_max = 400
input_dim = 16
num_classes = 5
sigma_beta = 2.0
input_shift_scale = 1.0
data_seed = 101
[arch]
embed_widths = 32,20
local_dim = 4
global_dim = 16
posterior_widths = 64,64
support_fraction = 0.5
mean_damp = 2.0
logscale_damp = 2.0
scale_floor = 1e-05
[train]
rounds = 200
cohort_size = 8
client_lr = 0.001
server_lr = 0.5
server_momentum = 0.9
local_epochs = 1
batch_size = 32
tau = 0.01
algorithm = fedvi
eval_every = 10
[bound]
eta = 1.0
delta = 0.05
slack_samples = 200
posterior_samples = 16
trials = 100
[run]
seed = 101
label = heterogeneous"""
        lines = parse_config(CONFIGS / "heterogeneous.cfg").provenance_lines()
        assert "\n".join(lines) == expected


def write_cfg(tmp_path, text=SMALL_RUN):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def shipped_cfg(name: str, *replacements: tuple[str, str]) -> str:
    """The text of ``configs/<name>``, each (old, new) line replaced."""
    text = (CONFIGS / name).read_text(encoding="utf-8")
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new)
    return text


class TestCliCommands:
    def test_generate_then_train_then_eval(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        assert main(["train", "--config", cfg, "--out", out]) == 0
        assert (
            main(
                [
                    "eval",
                    "--config",
                    cfg,
                    "--out",
                    out,
                    "--params",
                    str(tmp_path / "run" / "params.bin"),
                ]
            )
            == 0
        )
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["rounds"] == 4
        rows = read_metrics(tmp_path / "run" / "metrics.csv")
        assert [r["round"] for r in rows] == [2, 4]

    def test_train_twice_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", cfg, "--out", out1]) == 0
        assert main(["train", "--config", cfg, "--out", out2]) == 0
        m1 = (tmp_path / "a" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert m1 == m2
        p1 = (tmp_path / "a" / "params.bin").read_bytes()
        p2 = (tmp_path / "b" / "params.bin").read_bytes()
        assert p1 == p2

    def test_zero_rounds_gives_header_only_metrics(self, tmp_path):
        text = SMALL_RUN.replace("rounds = 4", "rounds = 0")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        rows = read_metrics(tmp_path / "run" / "metrics.csv")
        assert rows == []
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["eval_rounds"] == 0

    def test_metrics_header_carries_resolved_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out])
        text = (tmp_path / "run" / "metrics.csv").read_text()
        assert "# seed = 9" in text
        assert "# tau = 0.01" in text
        assert "round,loss,part_acc,nonpart_acc,kl_mean,timestamp" in text

    def test_unknown_schema_rejected_by_reader(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("round,loss,acc\n1,2,3\n")
        with pytest.raises(ValueError, match="unknown metrics schema"):
            read_metrics(bad)

    def test_ablate_single_zero_tau_gives_one_row(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["ablate", "--config", cfg, "--out", out, "--taus", "0"]) == 0
        lines = [
            line
            for line in (tmp_path / "run" / "ablation.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 2  # header plus the single zero row
        assert lines[1].startswith("0.0,")

    @pytest.mark.parametrize("taus", ["-0", "0,-0"])
    def test_ablate_negative_zero_is_the_zero_row(self, taus, tmp_path, capsys):
        # The grid once kept the -0.0 parsed first against the zero it adds,
        # so the reference row read -0.0.
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["ablate", "--config", cfg, "--out", str(out), f"--taus={taus}"]) == 0
        lines = [
            line
            for line in (out / "ablation.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 2 and lines[1].startswith("0.0,")
        assert capsys.readouterr().out.startswith("tau=0:")

    def test_ablate_writes_sorted_table_with_zero(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(
            ["ablate", "--config", cfg, "--out", out, "--taus", "1e-2,1e-4"]
        ) == 0
        lines = [
            line
            for line in (tmp_path / "run" / "ablation.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "tau,part_acc,nonpart_acc,gap"
        taus = [float(line.split(",")[0]) for line in lines[1:]]
        assert taus == [0.0, 1e-4, 1e-2]

    def test_bound_reports_identity(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out])
        assert (
            main(
                [
                    "bound",
                    "--config",
                    cfg,
                    "--out",
                    out,
                    "--params",
                    str(tmp_path / "run" / "params.bin"),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "run" / "bound.json").read_text())
        lhs = report["rhs"]
        rhs = report["empirical_risk"] + (
            report["kl_local"]
            + np.log(1.0 / report["delta"])
            + report["slack_moment"]
        ) / report["eta"]
        assert abs(lhs - rhs) < 1e-10

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", "--config", cfg, "--out", out1, "--seed", "1"])
        main(["train", "--config", cfg, "--out", out2, "--seed", "2"])
        assert (tmp_path / "a" / "metrics.csv").read_bytes() != (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_data_seed_pins_dataset_across_run_seeds(self, tmp_path):
        from fedvi.datagen import generate_hierarchical

        text = SMALL_RUN.replace("sigma_beta = 1.0", "sigma_beta = 1.0\ndata_seed = 123")
        cfg1 = parse_config_text(text, overrides={("run", "seed"): 1})
        cfg2 = parse_config_text(text, overrides={("run", "seed"): 2})
        ds1, _ = generate_hierarchical(cfg1.gen)
        ds2, _ = generate_hierarchical(cfg2.gen)
        assert ds1 == ds2
        assert cfg1.train.seed != cfg2.train.seed


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nrounds = soon\n")
        assert main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG

    def test_io_error_missing_dataset(self, tmp_path):
        text = "[data]\nsource = file\npath = /nonexistent/ds.bin\n"
        cfg = tmp_path / "f.cfg"
        cfg.write_text(text)
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg), "--out", out]) == cli.EXIT_IO

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numeric_failure(self, tmp_path, capsys):
        text = SMALL_RUN.replace("client_lr = 0.01", "client_lr = 50000.0")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"numeric failure: round \d+, client \d+, batch \d+: ", err), err

    @pytest.mark.parametrize("stage", ["server_apply", "evaluate"])
    def test_numeric_failure_after_local_training_names_round(
        self, stage, tmp_path, capsys, monkeypatch
    ):
        # round 2's server update, or its evaluation (the first, with
        # eval_every = 2), turns non-finite
        original = getattr(federation, stage)

        def server_apply(state, deltas, weights, cfg):
            if state.round_index == 1:
                deltas = [np.full_like(d, np.nan) for d in deltas]
            return original(state, deltas, weights, cfg)

        def evaluate(params, clients, cfg):
            params.theta_post[-1][...] = np.nan
            return original(params, clients, cfg)

        wrappers = {"server_apply": server_apply, "evaluate": evaluate}
        monkeypatch.setattr(federation, stage, wrappers[stage])
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"numeric failure: round 2: \S", err), err

    def test_nan_slack_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # NaN slack inputs used to put "nan" in bound.csv with exit 0. With
        # --check the check's draws are NaN too, and the slack's failure is
        # the one reported.
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        # NaN only the bound's fresh draws: the generated dataset rejects
        # NaN inputs, and `GroundTruth.clients` builds a new instance, so
        # the class is patched once the dataset is drawn.
        from fedvi.datagen import GroundTruth

        generate, draw = cli.generate_hierarchical, GroundTruth.draw

        def draw_nan_inputs(task, k, n, rng):
            x, probs = draw(task, k, n, rng)
            return np.full_like(x, np.nan), probs

        def generate_then_poison(gen):
            monkeypatch.setattr(GroundTruth, "draw", draw)
            drawn = generate(gen)
            monkeypatch.setattr(GroundTruth, "draw", draw_nan_inputs)
            return drawn

        monkeypatch.setattr(cli, "generate_hierarchical", generate_then_poison)
        args = ["bound", "--config", cfg, "--out", str(out), "--params", str(out / "params.bin")]
        for check in [], ["--check"]:
            threads = threading.active_count()
            assert main(args + check) == cli.EXIT_NUMERIC
            assert threading.active_count() == threads
            err = capsys.readouterr().err
            pattern = r"numeric failure: slack estimate: \d+ of \d+ gap samples are NaN\n"
            assert re.fullmatch(pattern, err), err
            assert not (out / "bound.csv").exists()

    def test_nan_check_risk_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # Only the check embeds its fresh inputs through `bounds.embed`, so
        # the slack succeeds and the check's failure is the one reported.
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        embed = bounds.embed
        monkeypatch.setattr(bounds, "embed", lambda *a: np.full_like(embed(*a), np.nan))
        args = ["bound", "--config", cfg, "--out", str(out), "--params", str(out / "params.bin")]
        threads = threading.active_count()
        assert main(args + ["--check"]) == cli.EXIT_NUMERIC
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err == "numeric failure: trial 0, client 0: true risk is NaN\n"
        assert not (out / "bound.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_nan_empirical_risk_is_a_numeric_failure(self, tmp_path, capsys):
        # Finite classifier weights near the float64 limit overflow the
        # audit's logits to inf, and their log-sum-exp to NaN, which used
        # to reach bound.csv with exit 0.
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        params = load_params(out / "params.bin")
        params.theta_cls[-2][...] *= 1e308
        save_params(params, out / "huge.bin")
        args = ["bound", "--config", cfg, "--out", str(out), "--params", str(out / "huge.bin")]
        assert main(args) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"numeric failure: client \d+: empirical risk is NaN", err), err
        assert not (out / "bound.csv").exists()

    def test_file_dataset_with_too_large_a_cohort(self, tmp_path, capsys):
        # 8 clients, 2 held out: a cohort of 7 cannot be drawn from the file
        assert main(["generate", "--config", write_cfg(tmp_path), "--out", str(tmp_path)]) == 0
        text = SMALL_RUN.replace(
            "[data]\n", f"[data]\nsource = file\npath = {tmp_path / 'dataset.bin'}\n"
        ).replace("cohort_size = 3", "cohort_size = 7")
        code = main(["train", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"config error: {tmp_path / 'dataset.bin'}: train.cohort_size = 7 exceeds "
            "data.clients - data.holdout = 6\n"
        )

    def test_round_without_a_trainable_client(self, tmp_path, capsys):
        # clients of 1 or 2 examples: no training split holds a batch of 2
        text = SMALL_RUN.replace("n_min = 40", "n_min = 1").replace("n_max = 60", "n_max = 2")
        code = main(["train", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: round 1: every cohort client was degenerate .*\n", err)

    def test_default_client_lr_trains_heterogeneous_cfg(self, tmp_path):
        # at the old default of 0.05, round 1 failed on a non-finite posterior scale
        text = shipped_cfg(
            "heterogeneous.cfg", ("client_lr = 0.001\n", ""), ("rounds = 200", "rounds = 2")
        )
        code = main(["train", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)])
        assert code == cli.EXIT_OK

    def test_failing_ablation_keeps_the_finished_rows(self, tmp_path, monkeypatch):
        original = cli.run_training
        runs = []

        def run_training(train_cfg, arch, ds):
            runs.append(train_cfg.tau)
            if len(runs) == 2:
                raise NonFiniteError("minibatch loss contains non-finite entries")
            return original(train_cfg, arch, ds)

        monkeypatch.setattr(cli, "run_training", run_training)
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        code = main(["ablate", "--config", cfg, "--out", str(out), "--taus", "0.01"])
        assert code == cli.EXIT_NUMERIC
        assert runs == [0.0, 0.01]
        lines = [
            line
            for line in (out / "ablation.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "tau,part_acc,nonpart_acc,gap"
        assert len(lines) == 2 and lines[1].startswith("0.0,")

    def test_failed_ablation_rewrite_keeps_the_finished_rows(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        original = Path.write_text
        writes = []

        def write_text(self, data, *args, **kwargs):
            if self.parent == out:
                writes.append(self.name)
                if len(writes) == 3:  # the rewrite after the second tau
                    open(self, "w").close()
                    raise OSError(28, "No space left on device")
            return original(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
        cfg = write_cfg(tmp_path)
        code = main(["ablate", "--config", cfg, "--out", str(out), "--taus", "0.01"])
        assert code == cli.EXIT_IO
        lines = [
            line
            for line in (out / "ablation.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "tau,part_acc,nonpart_acc,gap"
        assert len(lines) == 2 and lines[1].startswith("0.0,")
        assert [p.name for p in out.iterdir()] == ["ablation.csv"]

    def test_ablation_without_evaluated_rounds(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("rounds = 4", "rounds = 0"))
        out = tmp_path / "run"
        assert main(["ablate", "--config", cfg, "--out", str(out), "--taus", "0"]) == cli.EXIT_OK
        assert (out / "ablation.csv").read_text().splitlines()[-1] == "0.0,nan,nan,nan"

    def test_missing_params_file(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        code = main(
            ["eval", "--config", cfg, "--out", out, "--params", "/nonexistent.bin"]
        )
        assert code == cli.EXIT_IO

    def test_eval_params_of_another_architecture(self, tmp_path, rng, capsys):
        params = tmp_path / "p.bin"
        save_params(init_params(small_arch(input_dim=4), rng), params)
        cfg = write_cfg(tmp_path)  # input_dim = 5
        code = main(["eval", "--config", cfg, "--out", str(tmp_path), "--params", str(params)])
        assert code == cli.EXIT_CONFIG
        assert "trained for input_dim=4" in capsys.readouterr().err

    def test_ablate_rejects_fedavg_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("[train]\n", "[train]\nalgorithm = fedavg\n"))
        code = main(["ablate", "--config", cfg, "--out", str(tmp_path), "--taus", "0"])
        assert code == cli.EXIT_CONFIG
        assert "train.algorithm is 'fedavg'" in capsys.readouterr().err
        assert not (tmp_path / "ablation.csv").exists()

    def test_ablate_rejects_an_empty_tau_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code = main(["ablate", "--config", cfg, "--out", str(tmp_path), "--taus", ""])
        assert code == cli.EXIT_CONFIG
        assert "nonempty tau list" in capsys.readouterr().err
        assert not (tmp_path / "ablation.csv").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("ablate", "--algorithm"), ("ablate", "--tau"), ("eval", "--tau"), ("bound", "--tau"),
         ("bound", "--algorithm"), ("generate", "--algorithm")],
    )
    def test_flags_nothing_reads_are_rejected(self, command, flag, tmp_path):
        value = "fedavg" if flag == "--algorithm" else "0.5"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_cfg(tmp_path), flag, value])
        assert exc.value.code == 2

    def test_non_finite_file_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("[bound]\n", "[bound]\neta = inf\n"))
        args = ["bound", "--config", cfg, "--out", str(tmp_path), "--params", "x.bin"]
        assert main(args) == cli.EXIT_CONFIG
        assert "bound.eta = inf is not finite" in capsys.readouterr().err
        assert not (tmp_path / "bound.csv").exists()

    def test_non_finite_flag(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out), "--tau", "nan"])
        assert code == cli.EXIT_CONFIG
        assert "train.tau = nan is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out), "--seed=-1"])
        assert code == cli.EXIT_CONFIG
        assert "run.seed = -1 is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check", [True, False], ids=["check", "no-check"])
    def test_negative_bound_trials(self, check, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("trials = 4", "trials = -1"))
        args = ["bound", "--config", cfg, "--out", str(tmp_path), "--params", "x.bin"]
        assert main(args + ["--check"] * check) == cli.EXIT_CONFIG
        assert "bound.trials = -1 is negative" in capsys.readouterr().err
        assert not (tmp_path / "bound.csv").exists()

    @pytest.mark.parametrize("check", [True, False], ids=["check", "no-check"])
    def test_zero_bound_trials(self, check, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("trials = 4", "trials = 0"))
        args = ["bound", "--config", cfg, "--out", str(tmp_path), "--params", "x.bin"]
        if check:
            assert main(args + ["--check"]) == cli.EXIT_CONFIG
            assert "bound.trials >= 1, got 0" in capsys.readouterr().err
        else:  # zero trials pass; the missing params file stops the job
            assert main(args) == cli.EXIT_IO
        assert not (tmp_path / "bound.csv").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("embed_widths = 8,6", "embed_widths = 0,6", "embed_widths: every width must be >= 1"),
            ("posterior_widths = 8,8", "posterior_widths = -2,4", "posterior_widths: every width"),
        ],
        ids=["embed", "posterior"],
    )
    def test_layer_width_below_one(self, old, new, message, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, SMALL_RUN.replace(old, new))
        assert main(["train", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "taus, message",
        [
            ("0.01,abc", "'abc' is not a number"),
            ("-1", "finite and >= 0, got -1"),
            ("1e-2,inf", "finite and >= 0, got inf"),
            ("nan", "finite and >= 0, got nan"),
        ],
    )
    def test_ablate_rejects_a_bad_tau(self, taus, message, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code = main(["ablate", "--config", cfg, "--out", str(tmp_path), f"--taus={taus}"])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ablation.csv").exists()

    def test_bound_requires_generator(self, tmp_path):
        text = "[data]\nsource = file\npath = whatever.bin\n"
        cfg = tmp_path / "f.cfg"
        cfg.write_text(text)
        code = main(
            ["bound", "--config", str(cfg), "--out", str(tmp_path), "--params", "x.bin"]
        )
        assert code == cli.EXIT_CONFIG


class TestClientsTooSmallToSplit:
    """bound.cfg's data cut to clients of 1 to 3 rows, audited with bound.cfg's
    own parameters: a client of 1 row has no batch of ``min_batch = 2``."""

    @pytest.fixture(scope="class")
    def params_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bound")
        text = shipped_cfg("bound.cfg", ("rounds = 30", "rounds = 2"))
        assert main(["train", "--config", write_cfg(out, text), "--out", str(out)]) == 0
        return str(out / "params.bin")

    def bound(self, tmp_path, params_path, check, n_max):
        text = shipped_cfg(
            "bound.cfg", ("n_min = 200", "n_min = 1"), ("n_max = 200", f"n_max = {n_max}"),
            ("trials = 100", "trials = 3"),
        )
        cfg = write_cfg(tmp_path, text)
        args = ["bound", "--config", cfg, "--out", str(tmp_path), "--params", params_path]
        return cfg, main(args + check)

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_only_clients_large_enough_are_audited(
        self, check, params_path, tmp_path, capsys, monkeypatch
    ):
        from fedvi.datagen import generate_hierarchical

        audited = []
        original = bounds.client_posterior_audit

        def audit(params, x, *rest):
            audited.append(x.shape[0])
            return original(params, x, *rest)

        monkeypatch.setattr(bounds, "client_posterior_audit", audit)
        cfg, code = self.bound(tmp_path, params_path, check, n_max=3)
        assert code == cli.EXIT_OK
        sizes = [c.n for c in generate_hierarchical(parse_config(cfg).gen)[0].clients]
        large = [n for n in sizes if n >= 2]
        assert 0 < len(large) < len(sizes)
        assert capsys.readouterr().out.endswith(f" skipped={len(sizes) - len(large)}\n")
        # the audit of `fedvi bound` sees every client; the check's trials
        # draw data only for the clients it audits
        assert audited == sizes + (3 * large if check else [])

    def test_slack_covers_only_the_audited_clients(self, params_path, tmp_path, monkeypatch):
        from fedvi.datagen import generate_hierarchical

        tasks = []
        original = bounds.estimate_slack

        def estimate_slack(task, *rest):
            tasks.append(task)
            return original(task, *rest)

        monkeypatch.setattr(bounds, "estimate_slack", estimate_slack)
        cfg, code = self.bound(tmp_path, params_path, [], n_max=3)
        assert code == cli.EXIT_OK
        ds, truth = generate_hierarchical(parse_config(cfg).gen)
        kept = [k for k, c in enumerate(ds.clients) if c.n >= 2]
        assert 0 < len(kept) < len(ds.clients)
        (task,) = tasks
        assert task.n_per_client == [ds.clients[k].n for k in kept]
        assert np.array_equal(task.theta, truth.theta)
        for got, k in zip(task.betas, kept, strict=True):
            assert np.array_equal(got, truth.betas[k])
        for got, k in zip(task.shifts, kept, strict=True):
            assert np.array_equal(got, truth.shifts[k])

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_no_client_large_enough_is_a_config_error(self, check, params_path, tmp_path, capsys):
        _, code = self.bound(tmp_path, params_path, check, n_max=1)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: no client has a batch of ArchConfig.min_batch = 2 rows to audit\n"
        )
        assert not (tmp_path / "bound.csv").exists()


class TestBoundCheckStream:
    """``fedvi bound --check`` on bound.cfg at 2 rounds and 3 trials: the
    check reads its own stream, beside the slack."""

    @pytest.fixture(scope="class")
    def params_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bound")
        text = shipped_cfg("bound.cfg", ("rounds = 30", "rounds = 2"))
        assert main(["train", "--config", write_cfg(out, text), "--out", str(out)]) == 0
        return str(out / "params.bin")

    def job(self, tmp_path, params_path, monkeypatch, slack_samples=200):
        """Run the job; return its config, its slack and its check's trials."""
        text = shipped_cfg(
            "bound.cfg", ("trials = 100", "trials = 3"),
            ("slack_samples = 200", f"slack_samples = {slack_samples}"),
        )
        tmp_path.mkdir(exist_ok=True)
        cfg = write_cfg(tmp_path, text)
        seen = {}
        estimate_slack, holds_check = bounds.estimate_slack, bounds.bound_holds_check

        def record_slack(*args):
            seen["slack"] = estimate_slack(*args)
            return seen["slack"]

        def record_check(*args):
            seen["check"] = holds_check(*args)
            return seen["check"]

        monkeypatch.setattr(bounds, "estimate_slack", record_slack)
        monkeypatch.setattr(bounds, "bound_holds_check", record_check)
        args = ["bound", "--config", cfg, "--out", str(tmp_path), "--params", params_path]
        assert main(args + ["--check"]) == cli.EXIT_OK
        monkeypatch.undo()
        return parse_config(cfg), seen["slack"], seen["check"]

    def test_check_trials_do_not_depend_on_the_slack_samples(
        self, params_path, tmp_path, monkeypatch
    ):
        # With one stream for the slack and the check, the trials' fresh
        # datasets moved with the number of slack draws.
        _, slack_a, a = self.job(tmp_path / "a", params_path, monkeypatch, 200)
        _, slack_b, b = self.job(tmp_path / "b", params_path, monkeypatch, 100)
        assert slack_a != slack_b
        assert a.true_risks == b.true_risks
        assert a.empirical_risks == b.empirical_risks
        assert a.kl_values == b.kl_values

    def test_check_equals_a_serial_check_on_its_own_stream(
        self, params_path, tmp_path, monkeypatch
    ):
        from fedvi.datagen import generate_hierarchical

        cfg, slack, got = self.job(tmp_path, params_path, monkeypatch)
        task = generate_hierarchical(cfg.gen)[1]
        rng = substream(cfg.seed, DOMAIN_BOUND_CHECK)
        want = bounds.bound_holds_check(task, load_params(params_path), cfg.pac, 3, rng)
        assert got == want
        assert json.loads((tmp_path / "bound.json").read_text())["holds_fraction"] == (
            want.holding_fraction(cfg.pac, slack)
        )


class TestNothingToEvaluate:
    """Test sets of one row hold no batch of ``min_batch = 2``. A run whose
    participating clients, or whose nonempty holdout, have no test batch
    exits 2 before round 1, instead of writing NaN accuracies."""

    MESSAGE = (
        "config error: no {} client has a test batch of ArchConfig.min_batch = 2 rows "
        "to evaluate\n"
    )

    def small_clients_cfg(self, tmp_path, n):
        text = shipped_cfg(
            "heterogeneous.cfg", ("n_min = 200", f"n_min = {n}"), ("n_max = 400", f"n_max = {n}"),
            ("rounds = 200", "rounds = 10"),
        )
        return write_cfg(tmp_path, text)

    def holdout_of_one_test_row_cfg(self, tmp_path):
        # two held-out clients with one test row each, six that evaluate
        from fedvi.datagen import ClientDataset, FederatedDataset, save_dataset

        rng = np.random.default_rng(5)
        clients = [
            ClientDataset(k, rng.standard_normal((n, 5)), rng.integers(0, 3, n), split)
            for k, (n, split) in enumerate([(5, 4)] * 2 + [(50, 40)] * 6)
        ]
        save_dataset(FederatedDataset(clients, 3, holdout_count=2), tmp_path / "ds.bin")
        text = SMALL_RUN.replace("[data]\n", f"[data]\nsource = file\npath = {tmp_path / 'ds.bin'}\n")
        return write_cfg(tmp_path, text)

    def eval_args(self, cfg, tmp_path, algorithm):
        params = tmp_path / "params.bin"
        save_params(init_params(parse_config(cfg).arch, np.random.default_rng(0)), params)
        return ["eval", "--config", cfg, "--out", str(tmp_path), "--params", str(params),
                "--algorithm", algorithm]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--taus=0.01"]])
    def test_training_on_clients_of_one_test_row(self, command, n, tmp_path, capsys):
        cfg = self.small_clients_cfg(tmp_path, n)
        assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == self.MESSAGE.format("participating")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("algorithm", ["fedvi", "fedavg"])
    def test_eval_on_clients_of_one_test_row(self, algorithm, tmp_path, capsys):
        cfg = self.small_clients_cfg(tmp_path, 4)
        assert main(self.eval_args(cfg, tmp_path, algorithm)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == self.MESSAGE.format("participating")
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_holdout_of_one_test_row(self, command, tmp_path, capsys):
        cfg = self.holdout_of_one_test_row_cfg(tmp_path)
        if command == "train":
            args = ["train", "--config", cfg, "--out", str(tmp_path)]
        else:
            args = self.eval_args(cfg, tmp_path, "fedvi")
        assert main(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == self.MESSAGE.format("holdout")
        assert not (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "eval.json").exists()
