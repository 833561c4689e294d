"""Optimizer, training-loop, and metrics tests."""

import importlib
import tracemalloc

import numpy as np
import pytest

from lsaf import tensor as T
from lsaf.data import PatchSet, RasterPair, extract_patches, split, synth_generate
from lsaf.errors import ConfigError, ContractError, NumericError
from lsaf.model import LsafModel, ModelConfig
from lsaf.tensor import Tensor
from lsaf.train import (
    Adam,
    MetricsReport,
    TrainConfig,
    confusion_matrix,
    evaluate,
    predict,
    render_report,
    train,
    write_metrics_csv,
    write_trace_csv,
)


def rng(seed):
    return np.random.default_rng(seed)


def tiny_model(seed=0, mode="full", num_classes=3):
    return LsafModel(
        ModelConfig(num_classes=num_classes, pca_dims=13, patch=7, hidden=16),
        seed=seed,
        mode=mode,
    )


def tiny_patches(seed=0, num_classes=3, side=10):
    pair = synth_generate(num_classes, side, side, 13, seed=seed)
    return extract_patches(pair, s=7)


# ----------------------------------------------------------------------
# Adam


class TestAdam:
    def make_params(self, seed=0):
        r = rng(seed)
        return {
            "a": Tensor(r.normal(size=(3, 2)), requires_grad=True),
            "b": Tensor(r.normal(size=4), requires_grad=True),
        }

    def test_zero_gradient_is_identity(self):
        params = self.make_params()
        before = {k: p.data.copy() for k, p in params.items()}
        opt = Adam(params, TrainConfig(lr=0.1, epochs=1))
        for p in params.values():
            p.grad = np.zeros_like(p.data)
        opt.step()
        assert opt.steps == 1
        for k, p in params.items():
            assert np.array_equal(p.data, before[k])

    def test_first_step_magnitude_is_lr(self):
        params = self.make_params(seed=1)
        before = {k: p.data.copy() for k, p in params.items()}
        lr = 1e-3
        opt = Adam(params, TrainConfig(lr=lr, epochs=1))
        for p in params.values():
            p.grad = np.full_like(p.data, 2.5)
        opt.step()
        for k, p in params.items():
            update = before[k] - p.data
            # bias-corrected m/sqrt(v) = sign(g) up to the eps guard
            assert np.allclose(np.abs(update), lr, rtol=1e-6)
            assert np.all(update > 0)  # positive gradient → decrease

    def test_second_identical_step_is_no_larger(self):
        params = self.make_params(seed=2)
        opt = Adam(params, TrainConfig(lr=1e-2, epochs=1))
        g = {k: rng(3).normal(size=p.shape) for k, p in params.items()}
        snapshots = []
        for _ in range(2):
            snapshots.append({k: p.data.copy() for k, p in params.items()})
            for k, p in params.items():
                p.grad = g[k].copy()
            opt.step()
        snapshots.append({k: p.data.copy() for k, p in params.items()})
        for k in params:
            step1 = np.abs(snapshots[1][k] - snapshots[0][k])
            step2 = np.abs(snapshots[2][k] - snapshots[1][k])
            assert np.all(step2 <= step1 + 1e-12)

    def test_missing_grad_rejected(self):
        params = self.make_params(seed=4)
        opt = Adam(params, TrainConfig())
        params["a"].grad = np.ones_like(params["a"].data)
        with pytest.raises(ContractError, match="'b'"):
            opt.step()

    def test_state_round_trip(self):
        params = self.make_params(seed=5)
        opt = Adam(params, TrainConfig(lr=0.01))
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step()
        twin = Adam(self.make_params(seed=5), TrainConfig(lr=0.01))
        twin.load_state(opt.state_dict())
        assert twin.steps == 1
        for name in params:
            assert np.array_equal(twin.moment1[name], opt.moment1[name])
            assert np.array_equal(twin.moment2[name], opt.moment2[name])


# ----------------------------------------------------------------------
# config validation


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4
        assert cfg.epochs == 110
        assert cfg.batch == 128
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.eps == 1e-8

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-4)
        with pytest.raises(ConfigError):
            TrainConfig(batch=0)
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(eps=0.0)

    def test_zero_lr_is_allowed_for_frozen_runs(self):
        assert TrainConfig(lr=0.0).lr == 0.0


# ----------------------------------------------------------------------
# training loop


def paper_step_memory(batch):
    """Traced bytes of one float32 training step at the paper geometry: what
    the forward retains, the step's peak, and what is left beyond the
    parameter gradients once the sweep ends, each above the start."""
    prev = T.default_dtype()
    T.set_default_dtype(np.float32)
    try:
        model = LsafModel(ModelConfig(num_classes=6), seed=0)
        r = rng(0)
        hsi = Tensor(r.normal(size=(batch, 30, 11, 11)))
        lidar = Tensor(r.normal(size=(batch, 1, 11, 11)))
        labels = r.integers(0, 6, batch)
        grads = sum(p.data.nbytes for p in model.params().values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = T.cross_entropy(model.forward(hsi, lidar, training=True), labels)
            forward = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        T.set_default_dtype(prev)
    return forward, peak - base, after - base - grads


class TestTrainLoop:
    def test_zero_lr_freezes_parameters(self):
        model = tiny_model(seed=0)
        patches = tiny_patches(seed=0)
        before = {k: p.data.copy() for k, p in model.params().items()}
        train(model, patches, TrainConfig(lr=0.0, epochs=2, batch=32, seed=1))
        for k, p in model.params().items():
            assert np.array_equal(p.data, before[k]), k

    def test_seed_determinism_of_loss_trace(self):
        patches = tiny_patches(seed=1)
        traces = []
        for _ in range(2):
            model = tiny_model(seed=3)
            _, losses = train(model, patches, TrainConfig(lr=1e-3, epochs=2, batch=32, seed=9))
            traces.append(losses)
        assert traces[0] == traces[1]

    def test_loss_decreases_on_learnable_data(self):
        model = tiny_model(seed=2)
        patches = tiny_patches(seed=2)
        _, losses = train(model, patches, TrainConfig(lr=1e-3, epochs=8, batch=32, seed=0))
        assert losses[-1] < losses[0] * 0.9

    def test_callbacks_see_every_epoch(self):
        model = tiny_model(seed=4)
        patches = tiny_patches(seed=4)
        seen = []
        train(
            model,
            patches,
            TrainConfig(lr=1e-3, epochs=3, batch=64, seed=0),
            callbacks=[lambda epoch, m, loss: seen.append((epoch, loss))],
        )
        assert [e for e, _ in seen] == [0, 1, 2]

    def test_nan_aborts_with_diagnostic(self):
        model = tiny_model(seed=5)
        patches = tiny_patches(seed=5)
        model.params()["fusion.head_hsi.fc1.weight"].data[0, 0] = np.nan
        with pytest.raises(NumericError, match=r"epoch 0, batch 0.*fusion"):
            train(model, patches, TrainConfig(lr=1e-3, epochs=1, batch=32, seed=0))

    def test_empty_set_rejected(self):
        model = tiny_model(seed=6)
        whole = tiny_patches(seed=6)
        patches = PatchSet(whole.hsi, whole.lidar, whole.labels[:0], whole.pixels[:0], whole.patch)
        with pytest.raises(ConfigError):
            train(model, patches, TrainConfig(epochs=1))

    def test_label_overflow_rejected(self):
        model = tiny_model(seed=7, num_classes=3)
        patches = tiny_patches(seed=7, num_classes=4)
        with pytest.raises(ConfigError, match="classes"):
            train(model, patches, TrainConfig(epochs=1))

    def test_fusion_weights_get_nonzero_gradients(self):
        model = tiny_model(seed=8)
        patches = tiny_patches(seed=8)
        idx = np.arange(min(16, len(patches)))
        hsi, lidar = (Tensor(a) for a in patches.cut(idx))
        labels = patches.labels[idx] - 1
        loss = T.cross_entropy(model.forward(hsi, lidar, training=True), labels)
        loss.backward()
        assert model.fusion.weight_hsi.grad is not None
        assert model.fusion.weight_hsi.grad.any()
        assert model.fusion.weight_lidar.grad.any()

    def test_backward_frees_the_model_tape(self):
        """After the sweep, interior tensors hold no gradient, closure or
        parents, and every parameter holds its gradient."""
        model = tiny_model(seed=8)
        patches = tiny_patches(seed=8)
        idx = np.arange(min(16, len(patches)))
        hsi, lidar = (Tensor(a) for a in patches.cut(idx))
        logits = model.forward(hsi, lidar, training=True)
        loss = T.cross_entropy(logits, patches.labels[idx] - 1)
        loss.backward()
        for node in (logits, loss):
            assert node.grad is None and node._parents == () and node._grad_fn is None
        assert all(p.grad is not None for p in model.params().values())

    def test_backward_peak_stays_near_the_forward_tape(self):
        """One float32 training step at the paper geometry, batch 16: the
        sweep frees each node as it goes, so the step's traced peak stays
        within 2.4 times the forward's retained memory (about 2.13: the
        gather-form backwards spread their columns again; a sweep that
        frees nothing reaches about 3.4), and once it ends only the
        parameter gradients are left."""
        forward, peak, left = paper_step_memory(16)
        assert peak < 2.4 * forward
        assert left < 0.05 * forward

    def test_paper_step_keeps_no_column_buffer(self):
        """One float32 training step at the paper geometry, batch 128. The
        forward retains 70.5 MiB and the step peaks at 138.4 MiB under
        tracemalloc; the bounds add about 10%. No conv's tape keeps a
        column buffer and each batch norm centres over its conv's output:
        keeping the six gather-form blocks' whole-batch columns retains 165
        MiB, and centring apart from the conv output 95.7 MiB."""
        forward, peak, left = paper_step_memory(128)
        assert forward < 78 * 2 ** 20
        assert peak < 152 * 2 ** 20
        assert left < 2 ** 20

    def test_resume_matches_uninterrupted_run(self):
        patches = tiny_patches(seed=9)
        cfg = TrainConfig(lr=1e-3, epochs=4, batch=32, seed=5)

        solo = tiny_model(seed=10)
        _, solo_losses = train(solo, patches, cfg)

        resumed = tiny_model(seed=10)
        opt = Adam(resumed.params(), cfg)
        _, first = train(resumed, patches, TrainConfig(lr=1e-3, epochs=2, batch=32, seed=5),
                         optimizer=opt)
        _, second = train(resumed, patches, cfg, optimizer=opt, start_epoch=2)
        assert first + second == solo_losses
        for k, p in resumed.params().items():
            assert np.array_equal(p.data, solo.params()[k].data), k

    def test_each_epoch_shuffles_by_seed_and_epoch(self, monkeypatch):
        """Epoch k cuts its batches, in turn, from the order
        `default_rng([seed, k]).permutation(n)`, in a straight run and in a
        run resumed at k."""
        patches = tiny_patches(seed=11)
        n, seed, batch = len(patches), 5, 32
        loop = importlib.import_module("lsaf.train")
        batch_tensors, cut = loop._batch_tensors, []

        def record(train_set, idx, dtype):
            cut.append(idx.tolist())
            return batch_tensors(train_set, idx, dtype)

        monkeypatch.setattr(loop, "_batch_tensors", record)

        def batches_of(epochs):
            return [np.random.default_rng([seed, epoch]).permutation(n)[start:start + batch].tolist()
                    for epoch in epochs for start in range(0, n, batch)]

        cfg = TrainConfig(lr=1e-3, epochs=2, batch=batch, seed=seed)
        train(tiny_model(seed=12), patches, cfg)
        assert n > batch and cut == batches_of([0, 1])
        cut.clear()
        train(tiny_model(seed=12), patches, cfg, start_epoch=1)
        assert cut == batches_of([1])


# ----------------------------------------------------------------------
# metrics


def recount_oracle(conf):
    """Naive per-sample recount of OA/AA/kappa from a confusion matrix."""
    k = conf.shape[0]
    total = conf.sum()
    correct = sum(conf[i, i] for i in range(k))
    oa = correct / total * 100
    accs = []
    for i in range(k):
        support = conf[i].sum()
        if support:
            accs.append(conf[i, i] / support * 100)
    aa = sum(accs) / len(accs)
    po = correct / total
    pe = sum(conf[i].sum() * conf[:, i].sum() for i in range(k)) / total ** 2
    kappa = 1.0 if pe >= 1.0 and po == 1.0 else (0.0 if pe >= 1.0 else (po - pe) / (1 - pe))
    return oa, aa, kappa


class TestMetrics:
    def test_perfect_predictions(self):
        report = MetricsReport(confusion=np.diag([5, 7, 9]))
        assert report.oa == 100.0 and report.aa == 100.0 and report.kappa == 1.0

    def test_hand_evaluated_two_class_case(self):
        report = MetricsReport(confusion=np.array([[3, 1], [1, 3]]))
        assert report.oa == 75.0
        assert report.aa == 75.0
        assert abs(report.kappa - 0.5) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_recount_oracle(self, seed):
        k = int(rng(seed).integers(2, 8))
        conf = rng(seed + 1).integers(0, 40, size=(k, k))
        conf[0] += 1  # ensure a nonzero matrix
        report = MetricsReport(confusion=conf)
        oa, aa, kappa = recount_oracle(conf)
        assert report.oa == oa
        assert np.isclose(report.aa, aa, atol=1e-12)
        assert np.isclose(report.kappa, kappa, atol=1e-12)

    def test_confusion_rows_are_support(self):
        true = np.array([1, 1, 2, 3, 3, 3])
        pred = np.array([1, 2, 2, 3, 1, 3])
        conf = confusion_matrix(true, pred, 3)
        assert np.array_equal(conf.sum(axis=1), [2, 1, 3])
        assert conf[0, 1] == 1 and conf[2, 0] == 1

    def test_degenerate_single_class_kappa(self):
        report = MetricsReport(confusion=np.array([[4, 0], [0, 0]]))
        assert report.kappa == 1.0
        report = MetricsReport(confusion=np.array([[2, 2], [0, 0]]))
        assert report.kappa == 0.0

    def test_evaluate_on_trained_model_is_consistent(self):
        model = tiny_model(seed=11)
        pair = synth_generate(3, 10, 10, 13, seed=11)
        train_set, test_set = (extract_patches(RasterPair(pair.hsi, pair.lidar, side), s=7)
                               for side in split(pair.labels, 0.5, seed=0))
        train(model, train_set, TrainConfig(lr=1e-3, epochs=3, batch=32, seed=0))
        report = evaluate(model, test_set)
        preds = predict(model, test_set)
        assert report.confusion.sum() == len(test_set)
        assert report.oa == (preds == test_set.labels).mean() * 100


HOUSTON_ACCURACIES = [
    98.22, 96.12, 100.00, 95.08, 96.99, 98.92, 95.54, 96.66, 95.50, 83.48,
    94.52, 96.90, 99.43, 100.00, 99.79,
]


class TestReportRendering:
    def test_fifteen_class_layout(self):
        """One row per class with its accuracy, then OA/AA/kappa rows."""
        conf = np.zeros((15, 15), dtype=int)
        for i, acc in enumerate(HOUSTON_ACCURACIES):
            correct = int(round(acc * 100))
            conf[i, i] = correct
            conf[i, (i + 1) % 15] = 10000 - correct
        lines = render_report(MetricsReport(confusion=conf)).splitlines()
        rows = [line.split() for line in lines]
        class_rows = [row for row in rows if len(row) == 4 and row[1] == "Class"]
        assert class_rows == [[str(i), "Class", str(i), f"{acc:.2f}"]
                              for i, acc in enumerate(HOUSTON_ACCURACIES, start=1)]
        assert [row[0] for row in rows[-3:]] == ["OA", "AA", "Kappa"]

    def test_csv_writers(self, tmp_path):
        report = MetricsReport(confusion=np.array([[3, 1], [1, 3]]))
        metrics_path = tmp_path / "metrics.csv"
        write_metrics_csv(metrics_path, report)
        content = metrics_path.read_text()
        assert "OA,75.0000" in content and "kappa,0.500000" in content
        trace_path = tmp_path / "trace.csv"
        write_trace_csv(trace_path, [1.5, 0.75], 2)
        lines = trace_path.read_text().strip().splitlines()
        assert lines == ["epoch,loss", "2,1.5000000000", "3,0.7500000000"]
