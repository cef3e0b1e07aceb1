from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from fedvi.datagen import (
    DatasetVersionError,
    GenConfig,
    MalformedDatasetError,
    generate_hierarchical,
    load_dataset,
    save_dataset,
    softmax_rows,
)
from fedvi.seeding import substream


def make_cfg(**overrides) -> GenConfig:
    base = dict(
        c=8,
        n_range=(40, 60),
        d=4,
        num_classes=3,
        sigma_beta=1.0,
        input_shift_scale=0.5,
        seed=21,
        holdout_count=2,
    )
    base.update(overrides)
    return GenConfig(**base)


class TestGenerateHierarchical:
    def test_deterministic_given_seed(self):
        ds1, truth1 = generate_hierarchical(make_cfg())
        ds2, truth2 = generate_hierarchical(make_cfg())
        assert ds1 == ds2
        assert np.array_equal(truth1.theta, truth2.theta)
        for b1, b2 in zip(truth1.betas, truth2.betas):
            assert np.array_equal(b1, b2)

    def test_shapes_and_split(self):
        cfg = make_cfg()
        ds, _ = generate_hierarchical(cfg)
        assert len(ds.clients) == cfg.c
        assert ds.holdout_count == 2
        for cl in ds.clients:
            assert cfg.n_range[0] <= cl.n <= cfg.n_range[1]
            assert cl.split == int(0.8 * cl.n)
            assert cl.x.shape == (cl.n, cfg.d)
            assert cl.y.min() >= 0 and cl.y.max() < cfg.num_classes

    def test_iid_special_case_class_frequencies_agree(self):
        # no local effects and no input shift: every client shares one
        # predictive and one input distribution
        cfg = make_cfg(
            c=2, n_range=(8000, 8000), sigma_beta=0.0, input_shift_scale=0.0, seed=5,
            holdout_count=0,
        )
        ds, _ = generate_hierarchical(cfg)
        a, b = ds.clients
        for cls in range(cfg.num_classes):
            pa = (a.y == cls).mean()
            pb = (b.y == cls).mean()
            pooled = ((a.y == cls).sum() + (b.y == cls).sum()) / (a.n + b.n)
            se = np.sqrt(pooled * (1 - pooled) * (1 / a.n + 1 / b.n))
            assert abs(pa - pb) <= 3 * se

    def test_labels_match_ground_truth_conditionals(self):
        cfg = make_cfg(
            c=16, n_range=(500, 500), d=8, num_classes=4, sigma_beta=2.0,
            input_shift_scale=1.0, seed=33, holdout_count=0,
        )
        ds, truth = generate_hierarchical(cfg)
        crit = stats.chi2.ppf(0.99, cfg.num_classes - 1)
        for k, cl in enumerate(ds.clients):
            probs = softmax_rows(cl.x @ (truth.theta + truth.betas[k]))
            expected = probs.sum(axis=0)
            observed = np.bincount(cl.y, minlength=cfg.num_classes)
            keep = expected > 1e-9
            chi2 = (((observed - expected) ** 2)[keep] / expected[keep]).sum()
            assert chi2 < crit, f"client {k}: chi2={chi2:.1f} >= {crit:.1f}"

    def test_explicit_rng_controls_everything(self):
        cfg = make_cfg()
        ds1, _ = generate_hierarchical(cfg, substream(99, 1))
        ds2, _ = generate_hierarchical(cfg, substream(99, 1))
        ds3, _ = generate_hierarchical(cfg, substream(99, 2))
        assert ds1 == ds2
        assert ds1 != ds3


class TestSaveLoad:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = make_cfg()
        ds, _ = generate_hierarchical(cfg)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path, cfg)
        assert load_dataset(path) == ds
        assert (tmp_path / "ds.bin.json").exists()

    def test_save_twice_is_byte_identical(self, tmp_path):
        ds, _ = generate_hierarchical(make_cfg())
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_malformed(self, tmp_path):
        ds, _ = generate_hierarchical(make_cfg())
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(MalformedDatasetError):
            load_dataset(path)

    def test_bad_magic_is_malformed(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MalformedDatasetError):
            load_dataset(path)

    def test_version_bump_is_distinct_error(self, tmp_path):
        ds, _ = generate_hierarchical(make_cfg())
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetVersionError):
            load_dataset(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        ds, _ = generate_hierarchical(make_cfg())
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(MalformedDatasetError):
            load_dataset(path)


class TestClientDataset:
    def test_train_access_is_counted(self):
        ds, _ = generate_hierarchical(make_cfg())
        cl = ds.clients[0]
        assert cl.train_reads == 0
        cl.train_arrays()
        cl.train_arrays()
        assert cl.train_reads == 2
        cl.test_arrays()
        assert cl.train_reads == 2

    def test_invalid_holdout_count(self):
        ds, _ = generate_hierarchical(make_cfg())
        with pytest.raises(ValueError):
            type(ds)(ds.clients, ds.num_classes, len(ds.clients))
