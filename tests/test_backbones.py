"""Contracts of the four memoryless update rules.

Structural guarantees (the past-row restore, standardization, distillation
at the teacher) are checked bitwise or at float precision; the LwF
effectiveness check uses a paired-seed comparison on a fixed regime.
"""

import dataclasses
import math

import numpy as np
import pytest

from calib_il import backbones
from calib_il.backbones import (ETA_INIT, BackboneConfig, Model,
                                distillation_loss, feature_distillation_loss,
                                lucir_lambda, mean_loss, run_incremental_stack,
                                standardize_rows, train_initial, update_state)
from calib_il.config import KINDS
from calib_il.errors import NumericError, SpecError
from calib_il.metrics import per_state_accuracy
from calib_il.schedule import StateSchedule
from calib_il.synth import StateView, SynthSpec, draw_states
from test_synth import joined


def stacked(data, state):
    """The stacked view of one dataset's state: the training set of the
    state's new classes, all that training reads, with a model axis of
    length one."""
    group = data.schedule.group_slice(state, state)
    x, y = data.subset("train", np.arange(group.start, group.stop))
    return StateView(state, x[None], y[None])


def seen(data, tag, state):
    """One dataset's ``tag`` set of every class seen through ``state``."""
    return data.subset(tag, np.arange(data.schedule.classes_through(state)))


def one(stack):
    """The only model of a stack of one."""
    (model,) = backbones._unstack(stack)
    return model


def train_one(config, data):
    return train_initial(config, stacked(data, 1), data.schedule)


def update_one(model, data, state, config):
    return update_state(model, stacked(data, state), data.schedule, config)


def update_finetune(model, view, schedule, config):
    """Plain finetuning on the new group with no forgetting protection."""
    return backbones._train_new_group(model, view, schedule, config)


def draw(spec, num_states, name=""):
    return draw_states(spec, StateSchedule.equal_split(spec.num_classes, num_states), name)


def quick_draw(seed=11, num_classes=6, num_states=3, noise=1.0, dim=8, train=15, name=""):
    return draw(SynthSpec(num_classes=num_classes, feature_dim=dim, train_per_class=train,
                          val_per_class=5, test_per_class=5, noise_scale=noise,
                          seed=seed), num_states, name)


def quick_dataset(**kw):
    """The whole dataset of ``quick_draw(**kw)``."""
    return joined(quick_draw(**kw))


def quick_config(kind="ftplus", **kw):
    base = dict(kind=kind, epochs_initial=20, epochs_incremental=10)
    base.update(kw)
    return BackboneConfig(**base)


def run_stack(config, draws, sets=("validation", "test")):
    """Every state's logits from ``run_incremental_stack``, gathered per
    set and model: the whole run, as a test may hold it."""
    draws = list(draws)
    out = {name: [[] for _ in draws] for name in sets}
    for _, logits in run_incremental_stack(config, draws, sets):
        for name in sets:
            for per_model, state_logits in zip(out[name], logits[name], strict=True):
                per_model.append(state_logits)
    return tuple(out[name] for name in sets)


def model_bytes(model):
    return tuple(arr.tobytes() for arr in
                 (model.w1, model.b1, model.w2, model.b2, model.eta))


class TestBackboneConfig:
    def test_defaults(self):
        config = BackboneConfig()
        assert config.kind == "ftplus"
        assert config.hidden_dim == 64
        assert config.epochs_initial == 60
        assert config.epochs_incremental == 30
        assert config.learning_rate == 0.05
        assert config.momentum == 0.9
        assert config.weight_decay == 5e-4

    @pytest.mark.parametrize("bad", [
        dict(kind="replay"), dict(hidden_dim=0), dict(epochs_initial=0),
        dict(epochs_incremental=-1), dict(learning_rate=0.0),
        dict(momentum=1.0), dict(weight_decay=-1e-4),
        dict(kind="siw", hidden_dim=1), dict(distill_temperature=0.0),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(SpecError):
            BackboneConfig(**bad)


class TestStandardizeRows:
    def test_hand_case(self):
        out = standardize_rows(np.array([[2.0, 4.0, 6.0]]))
        root = math.sqrt(3.0 / 2.0)
        np.testing.assert_allclose(out, [[-root, 0.0, root]], rtol=1e-12)

    def test_rows_hit_mean_zero_std_one(self):
        rng = np.random.default_rng(0)
        out = standardize_rows(rng.normal(0, 3, (5, 16)))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, rtol=1e-12)

    def test_constant_row_zeroed_with_warning(self):
        w = np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 3.0]])
        with pytest.warns(UserWarning, match="1 constant row"):
            out = standardize_rows(w)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_allclose(out[1].mean(), 0.0, atol=1e-12)


class TestInitialTraining:
    def test_separable_data_is_learned_exactly(self):
        """Zero noise collapses each class onto its center, so the trained
        state-1 model classifies its own training set perfectly."""
        data = quick_dataset(seed=3, noise=0.0)
        model = train_one(quick_config(), data)
        x, y = seen(data, "train", 1)
        preds = np.argmax(model.scores(x[None])[0], axis=1)
        np.testing.assert_array_equal(preds, y)

    def test_training_reduces_loss(self):
        """Same seed means identical initialization, so more epochs must
        reach a lower train loss than one epoch on this separable data."""
        data = quick_dataset(seed=4)
        x, y = seen(data, "train", 1)
        short = one(train_one(quick_config(epochs_initial=1), data))
        long = one(train_one(quick_config(epochs_initial=40), data))
        loss_long = mean_loss(long, x, y)
        assert loss_long < mean_loss(short, x, y)
        assert loss_long < math.log(2)  # better than chance over 2 classes

    def test_wrong_state_rejected(self):
        data = quick_dataset()
        with pytest.raises(SpecError):
            train_initial(quick_config(), stacked(data, 2), data.schedule)

    def test_deterministic(self):
        data = quick_dataset(seed=5)
        a = train_one(quick_config(), data)
        b = train_one(quick_config(), data)
        assert model_bytes(a) == model_bytes(b)


class TestRestore:
    @pytest.mark.parametrize("kind", ["ftplus", "siw"])
    def test_finetune_then_restore_past_rows(self, kind):
        """Both rules fine-tune every row, then put the past groups' rows
        back from the input model; siw then standardizes every row and
        clears the biases. Past rows move while the state trains, so the
        restore is not a no-op. Three states: at state 3 the input model is
        itself a restored one."""
        data = quick_dataset()
        config = quick_config(kind)
        model = train_one(config, data)
        for state in (2, 3):
            want = update_finetune(model, stacked(data, state), data.schedule, config)
            n_past = model.num_classes
            assert want.w2[:, :n_past].tobytes() != model.w2.tobytes()
            want.w2[:, :n_past] = model.w2
            want.b2[:, :n_past] = model.b2
            if kind == "siw":
                want.w2 = standardize_rows(want.w2)
                want.b2 = np.zeros_like(want.b2)
            got = update_one(model, data, state, config)
            assert model_bytes(got) == model_bytes(want)
            model = got

    def test_new_rows_actually_train(self):
        data = quick_dataset()
        config = quick_config("ftplus")
        m1 = train_one(config, data)
        trained = update_one(m1, data, 2, config)
        untrained = update_one(m1, data, 2,
                               dataclasses.replace(config, epochs_incremental=0))
        assert trained.w2[:, 2:4].tobytes() != untrained.w2[:, 2:4].tobytes()

    def test_zero_epochs_changes_nothing_but_the_head(self):
        data = quick_dataset()
        config = quick_config("ftplus", epochs_incremental=0)
        m1 = train_one(config, data)
        m2 = update_one(m1, data, 2, config)
        assert m2.w1.tobytes() == m1.w1.tobytes()
        assert m2.b1.tobytes() == m1.b1.tobytes()
        assert m2.w2[:, :2].tobytes() == m1.w2.tobytes()
        assert m2.num_classes == 4

    def test_input_model_never_mutated(self):
        data = quick_dataset()
        for kind in ("ftplus", "siw", "lwf", "lucir_lite"):
            config = quick_config(kind)
            m1 = train_one(config, data)
            before = model_bytes(m1)
            update_one(m1, data, 2, config)
            assert model_bytes(m1) == before


class TestSIW:
    def test_rows_standardized_and_bias_cleared(self):
        data = quick_dataset()
        config = quick_config("siw")
        m1 = train_one(config, data)
        m2 = update_one(m1, data, 2, config)
        np.testing.assert_allclose(m2.w2.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(m2.w2.std(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(m2.b2, 0.0)


class TestLwF:
    def test_zero_weight_equals_plain_finetune(self):
        """With the distillation weight at zero the teacher term is skipped
        entirely, so the update is bitwise the plain finetune."""
        data = quick_dataset()
        config = quick_config("lwf", distill_weight=0.0)
        m1 = train_one(config, data)
        a = update_one(m1, data, 2, config)
        b = update_finetune(m1, stacked(data, 2), data.schedule, config)
        assert model_bytes(a) == model_bytes(b)

    def test_distillation_zero_at_teacher(self):
        data = quick_dataset()
        config = quick_config("lwf")
        m1 = one(train_one(config, data))
        loss = distillation_loss(m1, m1, seen(data, "validation", 1)[0], 2.0, 1.0)
        assert abs(loss) < 1e-12

    def test_distillation_matches_scalar_kl(self):
        """Hand-computed soft-target KL on a 1-sample, 2-class case."""
        def toy(w2_rows):
            return Model(w1=np.eye(2), b1=np.zeros(2),
                         w2=np.array(w2_rows), b2=np.zeros(2))
        student = toy([[1.0, 0.0], [0.0, 2.0]])
        teacher = toy([[0.5, 0.5], [1.0, 0.0]])
        x = np.array([[1.0, 2.0]])
        T, w = 2.0, 3.0
        zs = student.scores(x)[0] / T
        zt = teacher.scores(x)[0] / T
        ps = [math.exp(v) / sum(math.exp(u) for u in zs) for v in zs]
        pt = [math.exp(v) / sum(math.exp(u) for u in zt) for v in zt]
        kl = sum(p * (math.log(p) - math.log(q)) for p, q in zip(pt, ps))
        np.testing.assert_allclose(distillation_loss(student, teacher, x, T, w),
                                   w * T**2 * kl, rtol=1e-12)

    def test_precomputed_soft_targets_match_per_batch_teacher(self):
        """Soft targets evaluated once on the whole training set and indexed
        per batch give the gradient of the per-batch teacher formula; the
        student is the teacher finetuned without distillation."""
        data = quick_dataset()
        config = quick_config("lwf")
        teacher = train_one(config, data)
        view = stacked(data, 2)
        student = update_finetune(teacher, view, data.schedule, config)
        targets = backbones._teacher_targets(teacher, view.train_x, config, 0.0)
        assert targets.shape == (1, 30, 2)
        idx = np.random.default_rng(6).permutation(30)[:7]
        xb, yb = view.train_x[:, idx], view.train_y[:, idx]
        per_batch = np.exp(backbones._log_softmax(
            teacher.scores(xb) / config.distill_temperature))
        got = backbones._grads_linear(student, xb, yb, config, targets[:, idx])
        want = backbones._grads_linear(student, xb, yb, config, per_batch)
        plain = backbones._grads_linear(student, xb, yb, config)
        assert np.abs(got[2] - plain[2]).max() > 1e-3
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)

    def test_protects_past_accuracy(self):
        """Paired-seed comparison: on a fixed 20-class / 5-state regime a
        strong distillation term must beat no distillation on past-group
        accuracy at the final state for most seeds."""
        base = BackboneConfig(kind="lwf", epochs_initial=60,
                              epochs_incremental=30, learning_rate=0.01)

        def final_past_acc(distill_weight, seed):
            spec = SynthSpec(num_classes=20, feature_dim=32, train_per_class=40,
                             val_per_class=10, test_per_class=30,
                             center_scale=1.0, noise_scale=1.0, seed=seed)
            data = joined(draw(spec, 5))
            config = dataclasses.replace(base, distill_weight=distill_weight)
            model = train_one(config, data)
            for state in range(2, 6):
                model = update_one(model, data, state, config)
            x, y = seen(data, "test", 5)
            preds = np.argmax(model.scores(x[None])[0], axis=1)
            _, by_group = per_state_accuracy(preds, y, data.schedule, 5)
            return float(np.mean(by_group[:4]))

        wins = sum(final_past_acc(10.0, 100 + i) > final_past_acc(0.0, 100 + i)
                   for i in range(10))
        assert wins >= 7


class TestLucirLite:
    def test_adaptive_weight_value(self):
        assert lucir_lambda(16, 4, 5.0) == 10.0
        np.testing.assert_allclose(lucir_lambda(2, 8, 5.0), 2.5, rtol=1e-15)
        with pytest.raises(SpecError):
            lucir_lambda(0, 4, 5.0)

    def test_scores_bounded_by_eta(self):
        data = quick_dataset()
        config = quick_config("lucir_lite")
        m1 = train_one(config, data)
        m2 = update_one(m1, data, 2, config)
        scores = m2.scores(seen(data, "test", 2)[0][None])
        assert np.abs(scores).max() <= abs(m2.eta[0]) + 1e-9

    def test_eta_is_trained(self):
        data = quick_dataset()
        model = train_one(quick_config("lucir_lite"), data)
        assert model.eta[0] != ETA_INIT

    def test_feature_distillation_zero_at_teacher(self):
        data = quick_dataset()
        model = one(train_one(quick_config("lucir_lite"), data))
        loss = feature_distillation_loss(model, model, seen(data, "validation", 1)[0], 5.0)
        assert abs(loss) < 1e-12

    def test_precomputed_feature_directions_match_per_batch_teacher(self):
        data = quick_dataset()
        config = quick_config("lucir_lite")
        teacher = train_one(config, data)
        view = stacked(data, 2)
        student = update_finetune(teacher, view, data.schedule, config)
        targets = backbones._teacher_targets(teacher, view.train_x, config, 2.5)
        assert backbones._teacher_targets(teacher, view.train_x, config, 0.0) is None
        idx = np.random.default_rng(6).permutation(30)[:7]
        xb, yb = view.train_x[:, idx], view.train_y[:, idx]
        per_batch, _, _ = backbones._normalize_rows(teacher.hidden(xb))
        got = backbones._grads_cosine(student, xb, yb, config, targets[:, idx], 2.5)
        want = backbones._grads_cosine(student, xb, yb, config, per_batch, 2.5)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)

    def test_linear_model_rejected(self):
        data = quick_dataset()
        config = quick_config("lucir_lite")
        linear = train_one(quick_config("ftplus"), data)
        with pytest.raises(SpecError, match="cosine-head"):
            update_one(linear, data, 2, config)

    def test_degenerate_features_stay_finite(self):
        """A dead hidden layer produces zero feature vectors; the norm floor
        must keep cosine scores finite (and zero) instead of dividing by 0."""
        model = Model(w1=np.zeros((4, 3)), b1=np.zeros(4),
                      w2=np.ones((2, 4)), b2=np.zeros(2), cosine=True)
        scores = model.scores(np.array([[1.0, -2.0, 0.5]]))
        assert np.all(np.isfinite(scores))
        np.testing.assert_array_equal(scores, 0.0)


class TestRunIncremental:
    def test_shapes_states_and_determinism(self):
        data = quick_dataset(seed=9)
        config = quick_config()
        (val,), (test,) = run_stack(config, [quick_draw(seed=9, name="d0")])
        assert [lg.state for lg in val] == [1, 2, 3]
        assert [lg.state for lg in test] == [1, 2, 3]
        for s, lg in enumerate(val, start=1):
            assert lg.matrix.shape[1] == data.schedule.classes_through(s)
            np.testing.assert_array_equal(lg.labels, seen(data, "validation", s)[1])
            assert (lg.dataset, lg.backbone, lg.seed) == ("d0", "ftplus", 9)
        (val2,), _ = run_stack(config, [quick_draw(seed=9, name="d0")])
        for a, b in zip(val, val2):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_yields_each_state_before_the_next_trains(self, monkeypatch):
        """The stack is a generator: state s is handed over before state
        s+1 trains, with the logits of the sets asked for only."""
        updates = []
        real = backbones.update_state

        def counting(model, view, schedule, config):
            updates.append(view.state)
            return real(model, view, schedule, config)

        monkeypatch.setattr(backbones, "update_state", counting)
        stack = run_incremental_stack(quick_config(), [quick_draw(seed=9)], sets=("test",))
        assert updates == []
        for want, (state, logits) in enumerate(stack, start=1):
            assert state == want and updates == list(range(2, state + 1))
            assert list(logits) == ["test"]
            assert [lg.state for lg in logits["test"]] == [state]
        assert want == 3

    def test_each_model_is_scored_when_reached(self, monkeypatch):
        """A model is scored when the caller reaches it, and the models a
        caller leaves are scored, and so checked for divergence, before
        the next state trains."""
        scored = []
        real = backbones._stack_logits

        def scoring(model, x, labels, state, schedule, draws, backbone):
            x = x.copy()
            x[1, 0, 0] = np.nan  # the second model's scores are not finite
            for logits in real(model, x, labels, state, schedule, draws, backbone):
                scored.append(logits.dataset)
                yield logits

        monkeypatch.setattr(backbones, "_stack_logits", scoring)
        stack = run_incremental_stack(quick_config(), [quick_draw(seed=r, name=f"d{r}")
                                                       for r in (1, 2)], sets=("test",))
        state, logits = next(stack)
        assert state == 1 and scored == []
        assert next(logits["test"]).dataset == "d1" and scored == ["d1"]
        with pytest.raises(NumericError, match="'d2', state 1: ftplus training diverged"):
            next(stack)


class TestLockstep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_equals_one_at_a_time(self, kind):
        """Three datasets with distinct seeds trained as one stack: every
        model's val and test logits at every state carry the bits it gets
        when trained alone, as a stack of one. Batches of 7 over 30 samples
        per state end each epoch on a partial batch."""
        config = quick_config(kind, batch_size=7)
        val, test = run_stack(config, [quick_draw(seed=20 + r, name=f"d{r}") for r in range(3)])
        for r in range(3):
            (alone_val,), (alone_test,) = run_stack(
                config, [quick_draw(seed=20 + r, name=f"d{r}")])
            for got, want in zip(val[r] + test[r], alone_val + alone_test, strict=True):
                assert got.state == want.state
                assert got.dataset == want.dataset == f"d{r}"
                assert got.matrix.tobytes() == want.matrix.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()

    def test_stack_needs_equal_sample_counts(self):
        small = quick_draw(seed=1, train=10)
        with pytest.raises(ValueError, match="cannot be stacked"):
            run_stack(quick_config(), [quick_draw(), small])


def per_batch_sgd_epochs(model, x, y, config, epochs, rng, teacher=None, lam=0.0):
    """``_sgd_epochs`` gathering every batch from the unshuffled arrays by
    fancy indexing: the oracle for the one gather per epoch."""
    vel = [np.zeros_like(p) for p in (model.w1, model.b1, model.w2, model.b2)]
    vel_eta = np.zeros_like(model.eta)
    targets = backbones._teacher_targets(teacher, x, config, lam)
    lr, mu = config.learning_rate, config.momentum
    for _ in range(epochs):
        order = rng.permutation(y.shape[1])
        for start in range(0, y.shape[1], config.batch_size):
            idx = order[start:start + config.batch_size]
            tb = None if targets is None else targets[:, idx]
            if model.cosine:
                *grads, d_eta = backbones._grads_cosine(model, x[:, idx], y[:, idx], config,
                                                        tb, lam)
                vel_eta = mu * vel_eta + d_eta
                model.eta = model.eta - lr * vel_eta
            else:
                grads = backbones._grads_linear(model, x[:, idx], y[:, idx], config, tb)
            for v, g in zip(vel, grads):
                v *= mu
                v += g
            model.w1 -= lr * vel[0]
            model.b1 -= lr * vel[1]
            model.w2 -= lr * vel[2]
            model.b2 -= lr * vel[3]
    return model


class TestEpochGather:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bits_equal_per_batch_gather(self, kind, monkeypatch):
        """Two stacked datasets through every state, batches of 7 over 30
        samples: each epoch's one gather gives the bits of gathering each
        batch alone, for every update rule (teacher targets, the
        past-row restore and the cosine head included)."""
        config = quick_config(kind, batch_size=7)
        got = run_stack(config, [quick_draw(seed=40 + r) for r in range(2)])
        monkeypatch.setattr(backbones, "_sgd_epochs", per_batch_sgd_epochs)
        want = run_stack(config, [quick_draw(seed=40 + r) for r in range(2)])
        for got_set, want_set in zip(got, want, strict=True):
            for got_model, want_model in zip(got_set, want_set, strict=True):
                for a, b in zip(got_model, want_model, strict=True):
                    assert a.matrix.tobytes() == b.matrix.tobytes()


class TestGuards:
    def test_labels_outside_group_rejected(self):
        data = quick_dataset()
        config = quick_config()
        m1 = train_one(config, data)
        bad = dataclasses.replace(stacked(data, 2), train_y=stacked(data, 1).train_y)
        with pytest.raises(SpecError, match="new group"):
            update_state(m1, bad, data.schedule, config)

    def test_skipping_a_state_rejected(self):
        data = quick_dataset()
        config = quick_config()
        m1 = train_one(config, data)
        with pytest.raises(SpecError, match="overlap"):
            update_one(m1, data, 3, config)

    def test_logits_require_matching_state(self):
        data = quick_dataset()
        config = quick_config()
        m1 = train_one(config, data)
        x, y = seen(data, "validation", 2)
        with pytest.raises(SpecError, match="model covers"):
            next(backbones._stack_logits(m1, x[None], y[None], 2, data.schedule,
                                         [quick_draw()], "ftplus"))

    def test_mean_loss_hand_case(self):
        model = Model(w1=np.eye(2), b1=np.zeros(2),
                      w2=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                      b2=np.array([0.0, 0.1, -0.1]))
        x = np.array([[2.0, 1.0]])
        z = [2.0, 1.1, 1.4]
        expect = -math.log(math.exp(z[1]) / sum(math.exp(v) for v in z))
        np.testing.assert_allclose(mean_loss(model, x, np.array([1])), expect,
                                   rtol=1e-12)
