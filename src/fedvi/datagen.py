"""Federated dataset construction.

One source: a synthetic generator that samples a hierarchical process
(shared global predictor, independent per-client additive effects and input
shifts). Its ``GroundTruth`` keeps the process as drawn, so oracles (the
bound's true risks and its fresh datasets) sample the same clients through
the same code. Datasets round-trip bit-exactly through a versioned binary
format, which ``fedvi generate`` writes and ``data.source = file`` reads.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .seeding import DOMAIN_DATA, substream

MAGIC = b"FVDS"
FORMAT_VERSION = 1

TRAIN_FRACTION = 0.8


class MalformedDatasetError(ValueError):
    """Dataset file is truncated or structurally invalid."""


class DatasetVersionError(ValueError):
    """Dataset file was written by an unsupported format version."""


class ClientDataset:
    """One client's examples plus its train/test split position.

    Rows [0, split) are training data, rows [split, n) are held-out test
    data. Training reads go through :meth:`train_arrays`, which counts
    accesses so the federation loop can prove holdout clients never train.
    """

    def __init__(self, client_id: int, x: np.ndarray, y: np.ndarray, split: int):
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"client {client_id}: x {x.shape} and y {y.shape} do not align"
            )
        if not 0 <= split <= x.shape[0]:
            raise ValueError(f"client {client_id}: split {split} outside [0, {x.shape[0]}]")
        if y.size and y.min() < 0:
            raise ValueError(f"client {client_id}: negative label")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"client {client_id}: non-finite features")
        self.client_id = int(client_id)
        self.x = x
        self.y = y
        self.split = int(split)
        self.train_reads = 0

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_train(self) -> int:
        return self.split

    @property
    def n_test(self) -> int:
        return self.n - self.split

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self.train_reads += 1
        return self.x[: self.split], self.y[: self.split]

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x[self.split :], self.y[self.split :]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClientDataset):
            return NotImplemented
        return (
            self.client_id == other.client_id
            and self.split == other.split
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )

    def __repr__(self) -> str:
        return f"ClientDataset(id={self.client_id}, n={self.n}, split={self.split})"


class FederatedDataset:
    """Ordered client population; the first ``holdout_count`` never train."""

    def __init__(self, clients: list[ClientDataset], num_classes: int, holdout_count: int):
        if holdout_count < 0 or holdout_count >= len(clients):
            raise ValueError(
                f"holdout_count {holdout_count} must be in [0, {len(clients)})"
            )
        ids = [c.client_id for c in clients]
        if len(set(ids)) != len(ids):
            raise ValueError("client ids must be unique")
        for c in clients:
            if c.y.size and c.y.max() >= num_classes:
                raise ValueError(
                    f"client {c.client_id}: label {c.y.max()} >= num_classes {num_classes}"
                )
        self.clients = clients
        self.num_classes = int(num_classes)
        self.holdout_count = int(holdout_count)

    def holdout_clients(self) -> list[ClientDataset]:
        return self.clients[: self.holdout_count]

    def participating_clients(self) -> list[ClientDataset]:
        return self.clients[self.holdout_count :]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FederatedDataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and self.holdout_count == other.holdout_count
            and self.clients == other.clients
        )

    def __repr__(self) -> str:
        return (
            f"FederatedDataset(clients={len(self.clients)}, "
            f"num_classes={self.num_classes}, holdout={self.holdout_count})"
        )


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic hierarchical generator."""

    c: int
    n_range: tuple[int, int]
    d: int
    num_classes: int
    sigma_beta: float
    input_shift_scale: float
    seed: int
    holdout_count: int = 0

    def __post_init__(self) -> None:
        if self.c < 2:
            raise ValueError(f"need at least 2 clients, got {self.c}")
        lo, hi = self.n_range
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid n_range {self.n_range}")
        if self.d < 1 or self.num_classes < 2:
            raise ValueError("d must be >= 1 and num_classes >= 2")
        if self.sigma_beta < 0 or self.input_shift_scale < 0:
            raise ValueError("sigma_beta and input_shift_scale must be >= 0")
        if not 0 <= self.holdout_count < self.c:
            raise ValueError(f"holdout_count {self.holdout_count} outside [0, {self.c})")


@dataclass
class GroundTruth:
    """The synthetic process as drawn, for oracles only: the generator's
    config, the shared predictor, each client's effect, input shift and
    size. :meth:`draw` gives a client's fresh inputs with their exact label
    law, for the generator's own data and for the bound's fresh datasets
    and true risks.
    """

    cfg: GenConfig
    theta: np.ndarray  # [d x K] shared predictor
    betas: list[np.ndarray] = field(default_factory=list)  # per-client [d x K]
    shifts: list[np.ndarray] = field(default_factory=list)  # per-client [d]
    n_per_client: list[int] = field(default_factory=list)

    def draw(self, k: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n fresh inputs [n x d] of client k, x ~ N(m_k, I), and their
        label law [K x n]."""
        x = self.shifts[k] + rng.standard_normal((n, self.cfg.d))
        return x, label_law(x @ (self.theta + self.betas[k]))

    def clients(self, ks: list[int]) -> GroundTruth:
        """The clients ``ks`` alone: the same ``cfg`` and shared predictor,
        their effects, input shifts and sizes."""
        return GroundTruth(
            self.cfg,
            self.theta,
            [self.betas[k] for k in ks],
            [self.shifts[k] for k in ks],
            [self.n_per_client[k] for k in ks],
        )


def label_law(z: np.ndarray) -> np.ndarray:
    """Softmax of logits z [n x K], class-major: [K x n], every reduction
    over the leading class axis. ``z`` is left as it is."""
    p = z.T.copy()
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    return p


def sample_labels(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One label per column of the law p [K x n]: the number of its first
    K - 1 cumulative sums below a uniform draw. Rounding can leave the
    K-th sum below the largest uniform draw, so it is not compared."""
    cum = np.cumsum(p[:-1], axis=0)
    u = rng.random(p.shape[1])
    return (u > cum).sum(axis=0).astype(np.int64)


def generate_hierarchical(
    cfg: GenConfig, rng: np.random.Generator | None = None
) -> tuple[FederatedDataset, GroundTruth]:
    """Sample the hierarchical process and retain its ground truth.

    theta ~ N(0, I) [d x K]; per client k: n_k uniform on ``n_range``,
    beta_k ~ N(0, sigma_beta^2 I), m_k ~ N(0, input_shift_scale^2 I), then
    ``GroundTruth.draw``'s x ~ N(m_k, I) and
    y ~ Categorical(softmax((theta + beta_k)^T x)). Each client is split
    80/20 train/test by position after shuffling.
    """
    if rng is None:
        rng = substream(cfg.seed, DOMAIN_DATA)
    truth = GroundTruth(cfg, rng.standard_normal((cfg.d, cfg.num_classes)))
    clients: list[ClientDataset] = []
    lo, hi = cfg.n_range
    for k in range(cfg.c):
        n_k = int(rng.integers(lo, hi + 1))
        truth.betas.append(cfg.sigma_beta * rng.standard_normal((cfg.d, cfg.num_classes)))
        truth.shifts.append(cfg.input_shift_scale * rng.standard_normal(cfg.d))
        truth.n_per_client.append(n_k)
        x, p = truth.draw(k, n_k, rng)
        y = sample_labels(p, rng)
        perm = rng.permutation(n_k)
        clients.append(ClientDataset(k, x[perm], y[perm], int(TRAIN_FRACTION * n_k)))
    ds = FederatedDataset(clients, cfg.num_classes, cfg.holdout_count)
    return ds, truth


def save_dataset(ds: FederatedDataset, path, gen_config: GenConfig | None = None) -> None:
    """Write the versioned binary format; little-endian 64-bit throughout.

    When the dataset came from the synthetic generator, its config is kept
    as a JSON sidecar at ``<path>.json`` for provenance.
    """
    parts = [MAGIC, struct.pack("<III", FORMAT_VERSION, ds.num_classes, ds.holdout_count)]
    parts.append(struct.pack("<I", len(ds.clients)))
    for cl in ds.clients:
        parts.append(
            struct.pack("<qQQQ", cl.client_id, cl.n, cl.x.shape[1], cl.split)
        )
        parts.append(cl.x.astype("<f8").tobytes())
        parts.append(cl.y.astype("<i8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    if gen_config is not None:
        sidecar = dict(gen_config.__dict__)
        sidecar["n_range"] = list(gen_config.n_range)
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _Reader:
    """Reads a whole binary file; a read past its end raises ``error``."""

    def __init__(self, path, error: type[ValueError] = MalformedDatasetError):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.path = path
        self.error = error
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise self.error(
                f"{self.path}: file truncated at byte {self.pos} (need {count} more)"
            )
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_dataset(path) -> FederatedDataset:
    r = _Reader(path)
    if r.take(4) != MAGIC:
        raise MalformedDatasetError(f"{path}: not a dataset file (bad magic)")
    version, num_classes, holdout = r.unpack("<III")
    if version != FORMAT_VERSION:
        raise DatasetVersionError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    (n_clients,) = r.unpack("<I")
    clients = []
    for _ in range(n_clients):
        client_id, n, d, split = r.unpack("<qQQQ")
        x = np.frombuffer(r.take(8 * n * d), dtype="<f8").reshape(n, d)
        y = np.frombuffer(r.take(8 * n), dtype="<i8")
        clients.append(ClientDataset(client_id, x, y, split))
    if r.pos != len(r.blob):
        raise MalformedDatasetError(f"{path}: {len(r.blob) - r.pos} trailing bytes")
    try:
        return FederatedDataset(clients, num_classes, holdout)
    except ValueError as exc:
        raise MalformedDatasetError(f"{path}: {exc}") from exc
