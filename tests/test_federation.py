from __future__ import annotations

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvi import bounds, federation, model, nn
from fedvi.config import parse_config
from fedvi.datagen import ClientDataset, FederatedDataset, GenConfig, generate_hierarchical
from fedvi.datagen import label_law
from fedvi.federation import (
    TrainConfig,
    _accuracy_weighted,
    client_update,
    evaluate,
    init_server,
    run_training,
    sample_cohort,
    server_apply,
)
from fedvi.model import (
    ArchConfig,
    FedVIParams,
    forward_batch,
    global_branch_logits,
    init_params,
)
from fedvi.seeding import DOMAIN_CLIENT, substream

from conftest import replay_rounds, small_arch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_ds(seed=3, c=8, holdout=2, n=(40, 60), d=5, k=3, sigma_beta=1.0, shift=0.5):
    cfg = GenConfig(
        c=c, n_range=n, d=d, num_classes=k, sigma_beta=sigma_beta,
        input_shift_scale=shift, seed=seed, holdout_count=holdout,
    )
    ds, _ = generate_hierarchical(cfg)
    return ds


def update_alone(params, client, cfg, rng):
    """The client's update, a cohort of one, or None when it is skipped."""
    cohort = client_update(params, [client], cfg, [rng])
    return cohort if cohort.client_ids else None


def make_cfg(**overrides) -> TrainConfig:
    base = dict(
        rounds=4,
        cohort_size=3,
        client_lr=0.01,
        server_lr=1.0,
        server_momentum=0.9,
        local_epochs=1,
        batch_size=16,
        tau=0.1,
        seed=7,
        eval_every=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSampleCohort:
    def test_full_population(self, rng):
        ids = list(range(6))
        cohort = sample_cohort(ids, 6, rng)
        assert sorted(cohort) == ids

    def test_single_draw_frequencies(self):
        rng = substream(11, 0)
        ids = list(range(10))
        counts = np.zeros(10)
        trials = 100_000
        for _ in range(trials):
            counts[sample_cohort(ids, 1, rng)[0]] += 1
        assert np.all(np.abs(counts / trials - 0.1) < 0.01)

    def test_reproducible_sequence(self):
        ids = list(range(20))
        seq1 = [sample_cohort(ids, 5, substream(5, 0, r)) for r in range(4)]
        seq2 = [sample_cohort(ids, 5, substream(5, 0, r)) for r in range(4)]
        assert seq1 == seq2

    def test_oversized_cohort_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_cohort([1, 2], 3, rng)


class TestClientUpdate:
    def test_zero_learning_rate_gives_zero_delta(self, rng):
        ds = make_ds()
        params = init_params(small_arch(), rng)
        update = update_alone(
            params, ds.clients[2], make_cfg(client_lr=0.0), substream(1, 0)
        )
        assert update is not None
        assert np.array_equal(update.deltas, np.zeros_like(update.deltas))
        assert update.weights.tolist() == [ds.clients[2].n_train]

    def test_single_step_matches_analytic_gradient(self):
        # one linear embed layer, one batch, fedavg path: the update is
        # client_lr times the hand-computed softmax-regression gradient
        rng = substream(42, 0)
        arch = ArchConfig(
            input_dim=4, embed_widths=(4,), local_dim=1, global_dim=3, num_classes=3
        )
        params = init_params(arch, rng)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6).astype(np.int64)
        client = ClientDataset(0, x, y, split=6)
        cfg = make_cfg(
            client_lr=0.05, batch_size=16, local_epochs=1, algorithm="fedavg"
        )
        stream = substream(cfg.seed, DOMAIN_CLIENT, 1, 0)
        perm = substream(cfg.seed, DOMAIN_CLIENT, 1, 0).permutation(6)

        w1 = params.theta_embed[0].copy()
        b1 = params.theta_embed[1].copy()
        wc = params.theta_cls[0].copy()
        bc = params.theta_cls[1].copy()
        xb, yb = x[perm], y[perm]
        rep = xb @ w1 + b1
        logits = rep[:, :3] @ wc + bc
        p = label_law(logits).T
        p[np.arange(6), yb] -= 1.0
        d_rep = np.zeros_like(rep)
        d_rep[:, :3] = p @ wc.T
        grads = {
            "cls.W": rep[:, :3].T @ p,
            "cls.b": p.sum(axis=0),
            "embed.0.W": xb.T @ d_rep,
            "embed.0.b": d_rep.sum(axis=0),
        }

        delta = FedVIParams(update_alone(params, client, cfg, stream).deltas[0], arch).blocks
        for name, g in grads.items():
            assert np.max(np.abs(delta[name] - cfg.client_lr * g)) < 1e-10

    def test_same_stream_same_delta(self, rng):
        ds = make_ds()
        params = init_params(small_arch(), rng)
        cfg = make_cfg()
        u1 = update_alone(params, ds.clients[3], cfg, substream(9, 4))
        u2 = update_alone(params, ds.clients[3], cfg, substream(9, 4))
        assert np.array_equal(u1.deltas, u2.deltas)
        assert np.array_equal(u1.loss_sum, u2.loss_sum)

    def test_fedavg_delta_is_zero_on_the_constructor(self, rng):
        # fedavg's loss never reaches the posterior constructor: its gradient
        # there is +0.0, so local SGD leaves those entries bit for bit alone
        ds = make_ds()
        params = init_params(small_arch(), rng)
        update = update_alone(params, ds.clients[2], make_cfg(algorithm="fedavg"), rng)
        delta = FedVIParams(update.deltas[0], params.arch).blocks
        for name, block in delta.items():
            assert np.all(block == 0.0) == name.startswith("post."), name

    def test_step_on_rows_writes_through_to_the_cohort(self, rng):
        # client_update steps on views of the cohort matrix and of its one
        # gradient buffer: a step on row 1 writes row 1 of each, no other
        ds = make_ds()
        cfg = make_cfg(batch_size=8)
        cohort = init_params(small_arch(), rng).stacked(3)
        grad = FedVIParams(np.zeros_like(cohort.flat), cohort.arch)
        before = cohort.flat.copy()
        x, y, noise = next(federation.iter_local_batches(ds.clients[0], cfg, cohort.arch, rng))
        theta = cohort.rows(slice(1, 2))
        loss, _ = model.minibatch_loss(
            theta, x[None], y[None], cfg.tau, noise[None], np.array([8]), grad.rows(slice(1, 2))
        )
        theta.flat -= cfg.client_lr * nn.backward(loss)["theta"]
        assert np.array_equal(cohort.flat[[0, 2]], before[[0, 2]])
        assert np.any(cohort.flat[1] != before[1])
        assert np.all(grad.flat[[0, 2]] == 0.0) and np.any(grad.flat[1] != 0.0)

    def test_degenerate_client_is_skipped(self, rng):
        params = init_params(small_arch(), rng)
        tiny = ClientDataset(0, rng.standard_normal((3, 5)), np.zeros(3, np.int64), 1)
        result = client_update(params, [tiny], make_cfg(), [substream(0, 0)])
        assert (result.client_ids, result.skipped, result.steps) == ([], 1, 0)
        assert result.deltas.shape == (0, params.flat.size)

    def test_statelessness_copies_globals(self, rng):
        ds = make_ds()
        params = init_params(small_arch(), rng)
        before = params.flat.copy()
        client_update(params, [ds.clients[2]], make_cfg(), [substream(2, 2)])
        assert np.array_equal(params.flat, before)


class TestServerApply:
    def test_identity_aggregation_recovers_client_params(self, rng):
        ds = make_ds()
        cfg = make_cfg(server_lr=1.0, server_momentum=0.0)
        state = init_server(small_arch(), cfg.seed)
        update = update_alone(state.params, ds.clients[2], cfg, substream(3, 1))
        final = state.params.flat - update.deltas[0]
        server_apply(state, update.deltas, update.weights, cfg)
        assert np.max(np.abs(state.params.flat - final)) < 1e-12

    def test_weighted_mean_of_two_deltas(self, rng):
        cfg = make_cfg(server_lr=1.0, server_momentum=0.0)
        state = init_server(small_arch(), cfg.seed)
        d1 = np.full(state.params.flat.shape, 1.0)
        d2 = np.full(state.params.flat.shape, 5.0)
        before = state.params.flat.copy()
        server_apply(state, [d1, d2], [1, 3], cfg)
        moved = before - state.params.flat
        assert np.max(np.abs(moved - 4.0)) < 1e-12  # (1*1 + 3*5) / 4

    def test_a_delta_matrix_equals_the_list_of_its_rows(self):
        cfg = make_cfg(server_lr=0.7, server_momentum=0.9)
        rng = substream(602, 0)
        matrix, listed = init_server(small_arch(), cfg.seed), init_server(small_arch(), cfg.seed)
        for _ in range(3):
            deltas = rng.standard_normal((9, matrix.params.flat.size))
            weights = rng.integers(1, 50, 9)
            server_apply(matrix, deltas, weights, cfg)
            server_apply(listed, list(deltas), weights.tolist(), cfg)
        assert np.array_equal(matrix.params.flat, listed.params.flat)
        assert np.array_equal(matrix.momentum, listed.momentum)
        assert matrix.round_index == listed.round_index == 3

    def test_momentum_decay_follows_geometric_series(self, rng):
        cfg = make_cfg(server_lr=0.7, server_momentum=0.9)
        state = init_server(small_arch(), cfg.seed)
        start = state.params.flat.copy()
        g = np.full(start.shape, 2.0)
        zero = np.zeros(start.shape)
        server_apply(state, [g], [1], cfg)
        for _ in range(10):
            server_apply(state, [zero], [1], cfg)
        # displacement = lr * g * sum_{i=0..10} m^i
        factor = 0.7 * 2.0 * (1 - 0.9**11) / (1 - 0.9)
        moved = start - state.params.flat
        assert np.max(np.abs(moved - factor)) < 1e-10
        assert state.round_index == 11

    def test_fedavg_equivalence_weighted_mean_of_finals(self):
        # momentum 0, server_lr 1: new params equal the example-weighted
        # mean of client final parameters
        for trial in range(10):
            rng = substream(600, trial)
            cfg = make_cfg(server_lr=1.0, server_momentum=0.0)
            state = init_server(small_arch(), int(rng.integers(0, 1 << 31)))
            start = state.params.flat.copy()
            m = int(rng.integers(2, 6))
            finals = [start + rng.standard_normal(start.shape) for _ in range(m)]
            weights = [int(w) for w in rng.integers(1, 50, m)]
            deltas = [start - f for f in finals]
            server_apply(state, deltas, weights, cfg)
            wsum = sum(weights)
            want = sum(w * f for w, f in zip(weights, finals)) / wsum
            assert np.max(np.abs(state.params.flat - want)) < 1e-12

    def test_non_finite_update_names_its_block(self):
        cfg = make_cfg()
        state = init_server(small_arch(), cfg.seed)
        deltas = [np.zeros(state.params.flat.shape) for _ in range(2)]
        FedVIParams(deltas[1], state.params.arch).blocks["post.1.b"][3] = np.nan
        with pytest.raises(
            nn.NonFiniteError, match=r"^server parameter 'post.1.b' contains non-finite entries$"
        ):
            server_apply(state, deltas, [1, 2], cfg)

    def test_empty_cohort_rejected(self, rng):
        cfg = make_cfg()
        state = init_server(small_arch(), cfg.seed)
        with pytest.raises(ValueError):
            server_apply(state, [], [], cfg)


def rigged_params(arch: ArchConfig):
    """Embedding = identity, classifier reads the first features directly."""
    params = init_params(arch, substream(1, 1))
    params.theta_embed[0][...] = np.eye(arch.input_dim)
    params.theta_embed[1][...] = 0.0
    params.theta_cls[0][...] = np.eye(arch.num_classes, arch.num_classes)[
        : arch.global_dim
    ]
    params.theta_cls[1][...] = 0.0
    for block in params.theta_post:
        block[...] = 0.0
    return params


class TestEvaluate:
    def setup_method(self):
        self.arch = ArchConfig(
            input_dim=4, embed_widths=(4,), local_dim=1, global_dim=3, num_classes=3
        )
        self.params = rigged_params(self.arch)

    def _client(self, client_id, labels, correct_mask):
        labels = np.asarray(labels, dtype=np.int64)
        x = np.zeros((labels.size, 4))
        for i, (label, ok) in enumerate(zip(labels, correct_mask)):
            x[i, label if ok else (label + 1) % 3] = 5.0
        return ClientDataset(client_id, x, labels, split=0)

    def test_all_correct_gives_one(self):
        clients = [self._client(0, [0, 1, 2, 0], [True] * 4)]
        res = evaluate(self.params, clients, make_cfg(algorithm="fedavg"))
        assert res.accuracy == 1.0

    def test_weighted_mean_of_two_clients(self):
        half = self._client(0, [0, 1] * 5, [True, False] * 5)  # 10 pts, 50%
        full = self._client(1, [2, 0, 1] * 10, [True] * 30)  # 30 pts, 100%
        res = evaluate(self.params, [half, full], make_cfg(algorithm="fedavg"))
        assert abs(res.accuracy - 0.875) < 1e-15

    def test_personalized_path_all_correct(self):
        clients = [self._client(0, [0, 1, 2, 0, 1, 2, 0, 1], [True] * 8)]
        res = evaluate(self.params, clients, make_cfg(algorithm="fedvi", batch_size=8))
        assert res.accuracy == 1.0

    def test_support_label_noise_changes_nothing(self):
        ds = make_ds(seed=10)
        params = init_params(small_arch(), substream(8, 8))
        cfg = make_cfg(batch_size=16)
        clients = ds.holdout_clients()
        base = evaluate(params, clients, cfg)
        garbled = []
        for cl in clients:
            y = cl.y.copy()
            x_te, y_te = cl.test_arrays()
            n = y_te.shape[0]
            for start in range(0, n, cfg.batch_size):
                size = min(cfg.batch_size, n - start)
                if size < 2:
                    continue
                sup = int(size * small_arch().support_fraction)
                rows = cl.split + start + np.arange(sup)
                y[rows] = (y[rows] + 1) % ds.num_classes
            garbled.append(ClientDataset(cl.client_id, cl.x, y, cl.split))
        noisy = evaluate(params, garbled, cfg)
        assert noisy.accuracy == base.accuracy

    def test_tiny_test_sets_are_excluded(self):
        ok = self._client(0, [0, 1, 2, 1], [True] * 4)
        degenerate = self._client(1, [0], [True])
        res = evaluate(self.params, [ok, degenerate], make_cfg(algorithm="fedavg"))
        assert res.excluded == 1
        assert res.accuracy == 1.0


@given(
    accs=st.lists(st.floats(0, 1), min_size=1, max_size=6),
    weights=st.lists(st.integers(1, 100), min_size=1, max_size=6),
    new_weight=st.integers(1, 100),
)
@settings(max_examples=60, deadline=None)
def test_adding_perfect_client_never_lowers_weighted_accuracy(accs, weights, new_weight):
    n = min(len(accs), len(weights))
    per_client = list(zip(accs[:n], weights[:n]))
    before = _accuracy_weighted(per_client)
    after = _accuracy_weighted(per_client + [(1.0, new_weight)])
    assert after >= before - 1e-12


class TestRunTraining:
    def test_zero_rounds(self, rng):
        ds = make_ds()
        result = run_training(make_cfg(rounds=0), small_arch(), ds)
        assert result.reports == []
        assert result.summary["eval_rounds"] == 0

    def test_identical_seeds_are_bit_identical(self):
        ds = make_ds()
        cfg = make_cfg(rounds=5)
        r1 = run_training(cfg, small_arch(), ds)
        r2 = run_training(cfg, small_arch(), ds)
        assert [r.cohort for r in r1.reports] == [r.cohort for r in r2.reports]
        assert [r.loss_sum for r in r1.reports] == [r.loss_sum for r in r2.reports]
        assert [r.part_acc for r in r1.reports] == [r.part_acc for r in r2.reports]
        assert np.array_equal(r1.state.params.flat, r2.state.params.flat)

    def test_parallel_equals_sequential(self):
        # run_training trains each cohort in lockstep; a replay that trains
        # one client at a time must give the same bits
        ds = make_ds()
        cfg = make_cfg(rounds=4)
        seq_state, seq_losses = replay_rounds(cfg, small_arch(), ds)
        par = run_training(cfg, small_arch(), ds)
        assert seq_losses == [r.loss_sum for r in par.reports]
        assert np.array_equal(seq_state.params.flat, par.state.params.flat)

    def test_holdout_clients_never_train(self):
        ds = make_ds(c=10, holdout=3)
        run_training(make_cfg(rounds=6, cohort_size=4), small_arch(), ds)
        for cl in ds.holdout_clients():
            assert cl.train_reads == 0
        assert any(cl.train_reads > 0 for cl in ds.participating_clients())

    def test_final_round_is_always_evaluated(self):
        ds = make_ds()
        result = run_training(make_cfg(rounds=3, eval_every=10), small_arch(), ds)
        assert result.reports[-1].part_acc is not None
        assert all(r.part_acc is None for r in result.reports[:-1])

    def test_cohort_larger_than_population_rejected(self):
        ds = make_ds(c=5, holdout=1)
        with pytest.raises(ValueError):
            run_training(make_cfg(cohort_size=5), small_arch(), ds)

    def test_fedavg_path_runs(self):
        ds = make_ds()
        result = run_training(make_cfg(rounds=3, algorithm="fedavg"), small_arch(), ds)
        assert result.summary["eval_rounds"] > 0
        assert all(r.kl_mean == 0.0 for r in result.reports)

    def test_all_degenerate_cohort_raises(self, rng):
        clients = [
            ClientDataset(k, rng.standard_normal((3, 5)), np.zeros(3, np.int64), 1)
            for k in range(3)
        ]
        from fedvi.datagen import FederatedDataset

        ds = FederatedDataset(clients, num_classes=3, holdout_count=0)
        with pytest.raises(RuntimeError, match="degenerate"):
            run_training(make_cfg(rounds=1, cohort_size=2), small_arch(), ds)


class TestEvaluateTailBatches:
    def test_singleton_tail_batch_is_dropped(self):
        # 17 test points with batch 16: the final 1-example batch cannot be
        # split and must not contribute
        arch = ArchConfig(
            input_dim=4, embed_widths=(4,), local_dim=1, global_dim=3, num_classes=3
        )
        params = rigged_params(arch)
        rng = substream(5, 5)
        labels = rng.integers(0, 3, 17).astype(np.int64)
        x = np.zeros((17, 4))
        x[np.arange(17), labels] = 5.0
        client = ClientDataset(0, x, labels, split=0)
        res = evaluate(params, [client], make_cfg(batch_size=16))
        assert res.accuracy == 1.0
        assert res.excluded == 0


def ragged_clients(rng, arch, train_sizes, test_sizes):
    clients = []
    for k, (n_train, n_test) in enumerate(zip(train_sizes, test_sizes)):
        n = n_train + n_test
        x = rng.standard_normal((n, arch.input_dim))
        y = rng.integers(0, arch.num_classes, n)
        clients.append(ClientDataset(10 + k, x, y, split=n_train))
    return clients


# CohortUpdate's arrays of one row per trained client
ROW_FIELDS = ("deltas", "weights", "client_steps", "loss_sum", "nll_sum", "reg_sum", "kl_raw_sum")

# With batch size 8: tails of 3, 2 (a client of two examples), 5 and 5, a
# trailing single example that is dropped, no tail, and a client of one
# example, which is skipped.
RAGGED_TRAIN = [19, 2, 21, 1, 13, 17, 16]


class TestLockstepCohort:
    @pytest.mark.parametrize("algorithm", ["fedvi", "fedavg"])
    @pytest.mark.parametrize("local_epochs", [1, 2])
    def test_cohort_equals_one_client_cohorts(self, algorithm, local_epochs, monkeypatch):
        arch = small_arch()
        clients = ragged_clients(substream(41, 0), arch, RAGGED_TRAIN, [4] * 7)
        cfg = make_cfg(
            batch_size=8, local_epochs=local_epochs, algorithm=algorithm, client_lr=0.05
        )
        params = init_params(arch, substream(41, 1))

        def rngs():
            return [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in clients]

        stacked_steps = []
        backward = nn.backward
        monkeypatch.setattr(nn, "backward", lambda loss: stacked_steps.append(1) or backward(loss))
        cohort = client_update(params, clients, cfg, rngs())
        monkeypatch.undo()
        alone = [update_alone(params, c, cfg, r) for c, r in zip(clients, rngs())]
        alone = [u for u in alone if u is not None]

        assert cohort.skipped == 1
        assert cohort.steps == sum(u.steps for u in alone)
        assert len(stacked_steps) < cohort.steps  # clients did share steps
        assert cohort.client_ids == [u.client_ids[0] for u in alone]
        for name in ROW_FIELDS:
            want = np.concatenate([getattr(u, name) for u in alone])
            assert np.array_equal(getattr(cohort, name), want), name
        assert np.all(np.any(cohort.deltas != 0.0, axis=1))

    @pytest.mark.parametrize("algorithm", ["fedvi", "fedavg"])
    def test_rows_are_in_client_id_order_whatever_the_cohort_order(self, algorithm):
        arch = small_arch()
        clients = ragged_clients(substream(41, 0), arch, RAGGED_TRAIN, [4] * 7)
        cfg = make_cfg(batch_size=8, algorithm=algorithm, client_lr=0.05)
        params = init_params(arch, substream(41, 1))
        shuffled = [clients[k] for k in (4, 0, 6, 2, 5, 1, 3)]

        def update(cohort):
            rngs = [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in cohort]
            return client_update(params, cohort, cfg, rngs)

        a, b = update(clients), update(shuffled)
        assert a.client_ids == b.client_ids == sorted(a.client_ids)
        assert a.skipped == b.skipped == 1 and a.steps == b.steps
        for name in ROW_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize(
        "algorithm, local_epochs",
        [
            pytest.param(a, e, id=a if e == 1 else f"{a}-{e}-epochs")
            for e in (1, 2, 3)
            for a in ("fedvi", "fedavg")
        ],
    )
    def test_one_epoch_takes_one_step_per_batch_size(self, algorithm, local_epochs, monkeypatch):
        # every batch, a tail too, trains at width batch_size, and rows go
        # longest plan first, so the rows still training at a step index are
        # a prefix: one stacked step per local step index of every epoch
        arch = small_arch()
        clients = ragged_clients(substream(41, 0), arch, RAGGED_TRAIN, [4] * 7)
        cfg = make_cfg(batch_size=8, local_epochs=local_epochs, algorithm=algorithm)
        params = init_params(arch, substream(41, 1))

        def rngs():
            return [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in clients]

        sizes = [
            [xb.shape[0] for xb, _, _ in federation.iter_local_batches(c, cfg, arch, r)]
            for c, r in zip(clients, rngs())
        ]
        epochs = [plan[: len(plan) // local_epochs] for plan in sizes]
        assert sizes == [epoch * local_epochs for epoch in epochs]
        assert max(map(len, epochs)) == 3  # sizes {8, 2}, {8, 5}, {5, 3} an epoch
        stacked_steps = []
        backward = nn.backward
        monkeypatch.setattr(nn, "backward", lambda loss: stacked_steps.append(1) or backward(loss))
        cohort = client_update(params, clients, cfg, rngs())
        assert len(stacked_steps) == 3 * local_epochs < cohort.steps

    @pytest.mark.parametrize("algorithm", ["fedvi", "fedavg"])
    def test_heterogeneous_cfg_steps_at_its_longest_plans(self, algorithm, monkeypatch):
        # 20 rounds as shipped: each round takes as many stacked steps as its
        # cohort's longest plan has batches
        cfg = parse_config(
            CONFIGS / "heterogeneous.cfg",
            {("train", "rounds"): 20, ("train", "algorithm"): algorithm},
        )
        ds, _ = generate_hierarchical(cfg.gen)
        stacked_steps = []
        backward = nn.backward
        monkeypatch.setattr(nn, "backward", lambda loss: stacked_steps.append(1) or backward(loss))
        result = run_training(cfg.train, cfg.arch, ds)
        assert (len(stacked_steps), result.reports[-1].cumulative_steps) == (184, 1168)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_names_first_failing_client_of_earliest_step(self):
        # cohort order: a client that fails at batch 1, two that fail at
        # batch 0 in one stacked step (8 and 5 rows), a healthy one
        arch = small_arch()
        clients = ragged_clients(substream(42, 0), arch, [24, 5, 16, 16], [0] * 4)
        cfg = make_cfg(batch_size=8)
        rngs = [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in clients]
        for client, batch in [(clients[0], 1), (clients[1], 0), (clients[2], 0)]:
            perm = substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id).permutation(
                client.n_train
            )
            client.x[perm[8 * batch : 8 * batch + 8]] = 1e308
        params = init_params(arch, substream(42, 1))
        with pytest.raises(nn.NonFiniteError) as info:
            client_update(params, clients, cfg, rngs)
        assert info.value.context == {"client": clients[1].client_id, "batch": 0}

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_names_first_failing_client_fedavg(self):
        # the same cohort on the global branch, whose draws have no noise but
        # the same permutations; its loss stays finite on rows of 1e308, so
        # the rows hold infinities
        arch = small_arch()
        clients = ragged_clients(substream(42, 0), arch, [24, 5, 16, 16], [0] * 4)
        cfg = make_cfg(batch_size=8, algorithm="fedavg")
        rngs = [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in clients]
        for client, batch in [(clients[0], 1), (clients[1], 0), (clients[2], 0)]:
            perm = substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id).permutation(
                client.n_train
            )
            client.x[perm[8 * batch : 8 * batch + 8]] = np.inf
        params = init_params(arch, substream(42, 1))
        with pytest.raises(nn.NonFiniteError) as info:
            client_update(params, clients, cfg, rngs)
        assert info.value.context == {"client": clients[1].client_id, "batch": 0}

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_gradient_names_first_failing_client_fedavg(self):
        # the same cohort on the global branch with rows of 1e308: the loss
        # stays finite and the gradient does not, so the failure shows only
        # in the updated rows; clients[1] has a single batch and never steps
        # again, clients[2] fails at its next step
        arch = small_arch()
        clients = ragged_clients(substream(42, 0), arch, [24, 5, 16, 16], [0] * 4)
        cfg = make_cfg(batch_size=8, algorithm="fedavg")
        rngs = [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in clients]
        for client, batch in [(clients[0], 1), (clients[1], 0), (clients[2], 0)]:
            perm = substream(cfg.seed, DOMAIN_CLIENT, 1, client.client_id).permutation(
                client.n_train
            )
            client.x[perm[8 * batch : 8 * batch + 8]] = 1e308
        params = init_params(arch, substream(42, 1))
        with pytest.raises(nn.NonFiniteError, match="client parameters after a local step") as info:
            client_update(params, clients, cfg, rngs)
        assert info.value.context == {"client": clients[1].client_id, "batch": 0}


class TestMinBatch:
    @pytest.mark.parametrize("fraction", [0.5, 0.4, 0.25, 0.1, 1 / 3, 0.9])
    def test_is_the_smallest_batch_the_split_accepts(self, fraction):
        arch = small_arch(support_fraction=fraction)
        params = init_params(arch, substream(0, 0))
        size = arch.min_batch
        forward_batch(params, np.zeros((size, arch.input_dim)))
        for smaller in range(1, size):
            with pytest.raises(ValueError):
                forward_batch(params, np.zeros((smaller, arch.input_dim)))

    def test_tail_below_it_is_dropped_in_training_and_evaluation(self):
        # at support fraction 0.4 a batch of 2 has no support row: with
        # batch size 8, a tail of 2 (18 examples) and a client of 2 go
        arch = small_arch(support_fraction=0.4)
        assert arch.min_batch == 3
        clients = ragged_clients(substream(44, 0), arch, [18, 2, 11], [10, 2, 11])
        cfg = make_cfg(batch_size=8)
        params = init_params(arch, substream(44, 1))

        def rngs():
            return [substream(cfg.seed, DOMAIN_CLIENT, 1, c.client_id) for c in clients]

        sizes = [
            [xb.shape[0] for xb, _, _ in federation.iter_local_batches(c, cfg, arch, r)]
            for c, r in zip(clients, rngs())
        ]
        assert sizes == [[8, 8], [], [8, 3]]
        cohort = client_update(params, clients, cfg, rngs())
        assert cohort.skipped == 1 and cohort.client_steps.tolist() == [2, 2]

        res = evaluate(params, clients, cfg)
        assert res.excluded == 1
        first = clients[0]
        n = first.split + 8  # the first test batch, without the tail of 2
        cut = ClientDataset(first.client_id, first.x[:n], first.y[:n], first.split)
        assert evaluate(params, [first], cfg).accuracy == evaluate(params, [cut], cfg).accuracy

        # the bound audit skips the client of 2 training (or test) examples
        pb = bounds.PacBayesConfig(posterior_samples=2)
        for rows in (ClientDataset.train_arrays, ClientDataset.test_arrays):
            audits = [
                bounds.client_posterior_audit(params, *rows(c), pb, substream(44, 2))
                for c in clients
            ]
            assert [audit is None for audit in audits] == [False, True, False]

    def test_degenerate_round_names_it(self, rng):
        clients = [
            ClientDataset(k, rng.standard_normal((4, 5)), np.zeros(4, np.int64), 2)
            for k in range(3)
        ]
        ds = FederatedDataset(clients, num_classes=3, holdout_count=0)
        arch = small_arch(support_fraction=0.4)
        with pytest.raises(federation.DegenerateRoundError, match="no batch of 3 training"):
            run_training(make_cfg(rounds=1, cohort_size=2), arch, ds)


def group_bytes(arch, cfg, clients) -> list[int]:
    """The buffer each scored client of ``clients`` needs as a group alone."""
    fedvi = cfg.algorithm == "fedvi"
    needs = []
    for client in clients:
        sizes = [b.stop - b.start for b in federation.eval_batches(client.n_test, cfg, arch)]
        support = sum(map(arch.support_size, sizes)) if fedvi else 0
        if sizes:
            phases = federation._eval_phases(arch, fedvi, support, sum(sizes) - support, len(sizes))
            needs.append(8 * federation._eval_words(phases))
    return needs


def count_groups(monkeypatch) -> list[int]:
    """A list that gains an entry for every group ``evaluate`` scores."""
    groups = []
    score_group = federation._score_group

    def counted(*args):
        groups.append(1)
        return score_group(*args)

    monkeypatch.setattr(federation, "_score_group", counted)
    return groups


class TestStackedEvaluate:
    @pytest.mark.parametrize(
        "algorithm, one_client_groups",
        [
            pytest.param(a, one, id=a + ("-one-client-groups" if one else ""))
            for one in (False, True)
            for a in ("fedvi", "fedavg")
        ],
    )
    def test_equals_per_batch_scoring(self, algorithm, one_client_groups, monkeypatch):
        # batch size 8: a size-1 tail (17 test examples, skipped), a client
        # with one test example (excluded), tails of 5, equal test set sizes;
        # at a budget that holds only the smallest client, no two clients
        # share a group
        arch = small_arch()
        clients = ragged_clients(substream(43, 0), arch, [3] * 6, [17, 1, 13, 21, 6, 13])
        cfg = make_cfg(batch_size=8, algorithm=algorithm)
        params = init_params(arch, substream(43, 1))
        groups = count_groups(monkeypatch)
        if one_client_groups:
            budget = min(group_bytes(arch, cfg, clients))
            monkeypatch.setattr(federation, "EVAL_WORKSPACE_BYTES", budget)
        per_client = []
        for client in clients:
            x, y = client.test_arrays()
            correct = seen = 0
            if algorithm == "fedavg" and y.size >= 2:
                correct = int((global_branch_logits(params, x).argmax(axis=1) == y).sum())
                seen = y.size
            for start in range(0, y.size if algorithm == "fedvi" else 0, cfg.batch_size):
                xb, yb = x[start : start + 8], y[start : start + 8]
                if yb.size < 2:
                    continue
                fwd = forward_batch(params, xb)
                logits = fwd.logits_for(fwd.stats.q.mean)
                correct += int((logits.argmax(axis=1) == yb[fwd.support_size :]).sum())
                seen += yb.size - fwd.support_size
            if seen:
                per_client.append((correct / seen, y.size))
        res = evaluate(params, clients, cfg)
        assert res.excluded == 1 == len(clients) - len(per_client)
        assert res.accuracy == _accuracy_weighted(per_client)
        assert len(groups) == (len(per_client) if one_client_groups else 1)

    @pytest.mark.parametrize("algorithm", ["fedvi", "fedavg"])
    @pytest.mark.parametrize(
        "test_sizes, rows",
        [
            # tails of 3, 5, 6 and 2, and a client with one test example
            # (excluded)
            ([19, 13, 6, 10, 1], 19 + 13 + 6 + 10),
            # 110 clients of 80 test rows: 8800 scored rows in one pass
            ([80] * 110, 8800),
        ],
        ids=["ragged", "8800-rows"],
    )
    def test_one_forward_pass_per_call(self, algorithm, test_sizes, rows, monkeypatch):
        # batch size 8: every scored row is embedded once, in one 2-D pass
        # for the whole call, not one pass per batch size or per client
        arch = small_arch()
        clients = ragged_clients(substream(44, 0), arch, [3] * len(test_sizes), test_sizes)
        params = init_params(arch, substream(44, 1))
        shapes = []
        original = model.embed

        def embed(params, x, acts=None, **kwargs):
            shapes.append(np.shape(x))
            return original(params, x, acts, **kwargs)

        monkeypatch.setattr(model, "embed", embed)  # global_branch_logits's
        monkeypatch.setattr(federation, "embed", embed)
        evaluate(params, clients, make_cfg(batch_size=8, algorithm=algorithm))
        assert len(shapes) == 1 and len(shapes[0]) == 2
        assert shapes[0][0] == rows

    def test_warm_call_allocates_no_row_intermediates(self):
        # heterogeneous.cfg's participating clients at init parameters: a
        # warm call is one group, whose intermediates are views of its one
        # buffer; beyond that buffer it allocates less than 512 KiB (about
        # 2 MiB when each intermediate was an array of its own)
        cfg = parse_config(CONFIGS / "heterogeneous.cfg")
        ds, _ = generate_hierarchical(cfg.gen)
        params = init_server(cfg.arch, cfg.train.seed).params
        clients = ds.participating_clients()
        evaluate(params, clients, cfg.train)
        (group,) = federation._eval_plan(
            cfg.arch, cfg.train, federation.EVAL_WORKSPACE_BYTES, tuple(c.n_test for c in clients)
        )
        tracemalloc.start()
        try:
            evaluate(params, clients, cfg.train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * federation._eval_words(group.phases) < 512 * 1024

    @pytest.mark.parametrize("algorithm", ["fedvi", "fedavg"])
    def test_memory_stays_within_the_budget(self, algorithm, monkeypatch):
        # at a budget that holds the largest client alone and no two
        # neighbours, a call with its plan cached peaks at the budget (the
        # largest group's buffer) plus a constant: numpy's ufunc buffer
        # (12 KiB), arrays of one row per batch, index arrays of one group's
        # rows, the batch lists
        arch = small_arch()
        clients = ragged_clients(substream(45, 0), arch, [3] * 12, [200, 64, 150] * 4)
        cfg = make_cfg(batch_size=8, algorithm=algorithm)
        params = init_params(arch, substream(45, 1))
        budget = max(group_bytes(arch, cfg, clients))
        whole = evaluate(params, clients, cfg)
        monkeypatch.setattr(federation, "EVAL_WORKSPACE_BYTES", budget)
        evaluate(params, clients, cfg)  # builds the plan for this budget
        groups = count_groups(monkeypatch)
        tracemalloc.start()
        try:
            grouped = evaluate(params, clients, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grouped == whole
        assert len(groups) == len(clients)
        assert budget < peak < budget + 64 * 1024

    def test_interleaved_calls_equal_fresh_ones(self):
        # the cached plans carry nothing from one call to the next: calls on
        # two client lists of different sizes, for both algorithms, in turn,
        # against calls from an empty plan cache
        ds = make_ds(seed=11, c=12, holdout=4, n=(40, 90))
        params = init_params(small_arch(), substream(46, 1))
        calls = [
            (clients, make_cfg(batch_size=8, algorithm=algorithm))
            for algorithm in ("fedvi", "fedavg")
            for clients in (ds.participating_clients(), ds.holdout_clients())
        ]
        interleaved = [evaluate(params, clients, cfg) for clients, cfg in calls * 2]
        fresh = []
        for clients, cfg in calls:
            federation._eval_plan.cache_clear()
            fresh.append(evaluate(params, clients, cfg))
        assert interleaved == fresh * 2

    def test_concurrent_calls_equal_sequential_ones(self):
        # heterogeneous.cfg's participating and holdout clients at init
        # parameters: four threads, each calling evaluate 20 times on the
        # two lists in turn, get the results of calls made one at a time
        cfg = parse_config(CONFIGS / "heterogeneous.cfg")
        ds, _ = generate_hierarchical(cfg.gen)
        params = init_server(cfg.arch, cfg.train.seed).params
        lists = [ds.participating_clients(), ds.holdout_clients()]
        sequential = [evaluate(params, clients, cfg.train) for clients in lists]

        def calls(_):
            return [evaluate(params, lists[i % 2], cfg.train) for i in range(20)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [r for rs in pool.map(calls, range(4)) for r in rs]
        assert results == sequential * 40


class TestTrainConfigValidation:
    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            make_cfg(server_momentum=1.0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_cfg(algorithm="fedprox")

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            make_cfg(tau=-1.0)
