from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from fedvi.config import parse_config
from fedvi.datagen import (
    DatasetVersionError,
    GenConfig,
    MalformedDatasetError,
    generate_hierarchical,
    label_law,
    load_dataset,
    sample_labels,
    save_dataset,
)
from fedvi.seeding import substream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# SHA-256 of every client's x (little-endian float64) and y (little-endian
# int64), clients in order, as the shipped configs generate them.
PINNED_DIGESTS = {
    "heterogeneous.cfg": (
        "6379150901748ab1e474ad8b6851ffa8e46b5b7d8e52563c487f904881491d3a",
        "1f53af61c7fb8ae6118e4147a8d9ecbdff070b14d5d703b4883917788b880030",
    ),
    "iid.cfg": (
        "40120d8b2996862d662f5f54a51ebbb0def502306e2b18b239c3ff851e568a7f",
        "40b686fd86576a492f6b3733b86ba56db27cedb35e918b6ed5c86d23899f4292",
    ),
    "bound.cfg": (
        "00cd0ce053e1d6d55b2b2efd346c4a96fa7dd7cd8a3f41f7eb20569fe97f112f",
        "fa815a938b560a860803f9d7207364423a95e6928d9f61f78f6c5632027d0ded",
    ),
}

# The largest value Generator.random returns.
TOP_UNIFORM = float(np.nextafter(1.0, 0.0))


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
        ds, truth = generate_hierarchical(cfg)
        assert len(ds.clients) == cfg.c
        assert ds.holdout_count == 2
        assert truth.n_per_client == [cl.n for cl in ds.clients]
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
            probs = label_law(cl.x @ (truth.theta + truth.betas[k]))
            expected = probs.sum(axis=1)
            observed = np.bincount(cl.y, minlength=cfg.num_classes)
            keep = expected > 1e-9
            chi2 = (((observed - expected) ** 2)[keep] / expected[keep]).sum()
            assert chi2 < crit, f"client {k}: chi2={chi2:.1f} >= {crit:.1f}"

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_shipped_configs_generate_pinned_bytes(self, name):
        ds, _ = generate_hierarchical(parse_config(CONFIGS / name).gen)
        x_digest, y_digest = hashlib.sha256(), hashlib.sha256()
        for cl in ds.clients:
            x_digest.update(cl.x.astype("<f8").tobytes())
            y_digest.update(cl.y.astype("<i8").tobytes())
        assert (x_digest.hexdigest(), y_digest.hexdigest()) == PINNED_DIGESTS[name]

    def test_explicit_rng_controls_everything(self):
        cfg = make_cfg()
        ds1, _ = generate_hierarchical(cfg, substream(99, 1))
        ds2, _ = generate_hierarchical(cfg, substream(99, 1))
        ds3, _ = generate_hierarchical(cfg, substream(99, 2))
        assert ds1 == ds2
        assert ds1 != ds3


class FixedUniforms:
    """A generator stub whose ``random`` returns the given draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def row_major_softmax(z):
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def logits(max_classes):
    return st.integers(2, max_classes).flatmap(
        lambda k: arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(k)),
            elements=st.floats(-50.0, 50.0, allow_nan=False),
        )
    )


uniforms = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(TOP_UNIFORM))


class TestLabelLaw:
    def test_top_uniform_draw_gives_an_in_range_label(self):
        # Rounding leaves the last cumulative sum of many 5-class laws
        # below the largest uniform draw; counting every boundary under it
        # then gave label 5.
        z = substream(7, 0).standard_normal((20_000, 5))
        p = label_law(z)
        short = np.cumsum(p, axis=0)[-1] < TOP_UNIFORM
        assert short.sum() > 100
        y = sample_labels(p, FixedUniforms(np.full(z.shape[0], TOP_UNIFORM)))
        assert y.min() >= 0 and y.max() == 4
        assert np.all(y[short] == 4)

    @settings(max_examples=200, deadline=None)
    @given(logits(7))
    def test_law_equals_the_row_major_softmax_bit_for_bit(self, z):
        given_z = z.copy()
        law = label_law(z)
        assert np.array_equal(z, given_z)
        assert law.shape == z.shape[::-1] and law.flags.c_contiguous
        assert np.array_equal(law.T, row_major_softmax(z))

    @settings(max_examples=200, deadline=None)
    @given(logits(64), st.data())
    def test_labels_are_in_range_and_match_the_full_draw(self, z, data):
        n, k = z.shape
        u = np.array(data.draw(st.lists(uniforms, min_size=n, max_size=n)))
        p = label_law(z)
        y = sample_labels(p, FixedUniforms(u))
        assert y.dtype == np.int64
        assert np.all((0 <= y) & (y < k))
        # The draw against all K boundaries, where it gives a class.
        cum = np.cumsum(p.T, axis=1)
        full = (u[:, None] > cum).sum(axis=1)
        inside = u <= cum[:, -1]
        assert np.array_equal(y[inside], full[inside])
        assert np.all(y[~inside] == k - 1)


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
