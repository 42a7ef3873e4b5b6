"""Contracts of the four memoryless update rules.

Structural guarantees (freezing, snapshots, standardization, distillation
at the teacher) are checked bitwise or at float precision; the LwF
effectiveness check uses a paired-seed comparison on a fixed regime.
"""

import dataclasses
import math

import numpy as np
import pytest

from calib_il import backbones
from calib_il.backbones import (ETA_INIT, KINDS, BackboneConfig, Model,
                                distillation_loss, extract_logits,
                                feature_distillation_loss, lucir_lambda,
                                mean_loss, run_incremental,
                                run_incremental_stack, standardize_rows,
                                train_initial, update_ftplus,
                                update_lucir_lite, update_lwf, update_siw,
                                update_state)
from calib_il.errors import SpecError
from calib_il.metrics import per_state_accuracy
from calib_il.synth import SynthSpec, gen_synthetic_dataset, split_states


def update_finetune(model, view, schedule, config):
    """Plain finetuning on the new group with no forgetting protection."""
    return backbones._update_one(backbones._finetune, model, view, schedule, config)


def quick_split(seed=11, num_classes=6, num_states=3, noise=1.0, dim=8):
    spec = SynthSpec(num_classes=num_classes, feature_dim=dim,
                     train_per_class=15, val_per_class=5, test_per_class=5,
                     noise_scale=noise, seed=seed)
    return split_states(gen_synthetic_dataset(spec), num_states)


def quick_config(kind="ftplus", **kw):
    base = dict(kind=kind, epochs_initial=20, epochs_incremental=10)
    base.update(kw)
    return BackboneConfig(**base)


def model_bytes(model):
    return tuple(arr.tobytes() for arr in
                 (model.w1, model.b1, model.w2, model.b2,
                  model.snap_w2, model.snap_b2)) + (model.eta,)


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
        split = quick_split(seed=3, noise=0.0)
        model = train_initial(quick_config(), split.views[0], split.schedule)
        view = split.views[0]
        preds = np.argmax(model.scores(view.train_x), axis=1)
        np.testing.assert_array_equal(preds, view.train_y)

    def test_training_reduces_loss(self):
        """Same seed means identical initialization, so more epochs must
        reach a lower train loss than one epoch on this separable data."""
        split = quick_split(seed=4)
        view = split.views[0]
        short = train_initial(quick_config(epochs_initial=1), view, split.schedule)
        long = train_initial(quick_config(epochs_initial=40), view, split.schedule)
        loss_long = mean_loss(long, view.train_x, view.train_y)
        assert loss_long < mean_loss(short, view.train_x, view.train_y)
        assert loss_long < math.log(2)  # better than chance over 2 classes

    def test_wrong_state_rejected(self):
        split = quick_split()
        with pytest.raises(SpecError):
            train_initial(quick_config(), split.views[1], split.schedule)

    def test_deterministic(self):
        split = quick_split(seed=5)
        a = train_initial(quick_config(), split.views[0], split.schedule)
        b = train_initial(quick_config(), split.views[0], split.schedule)
        assert model_bytes(a) == model_bytes(b)


class TestFreezing:
    def test_past_rows_bitwise_frozen(self):
        split = quick_split()
        config = quick_config("ftplus")
        m1 = train_initial(config, split.views[0], split.schedule)
        m2 = update_ftplus(m1, split.views[1], split.schedule, config)
        assert m2.w2[:2].tobytes() == m1.w2.tobytes()
        assert m2.b2[:2].tobytes() == m1.b2.tobytes()
        assert not m2.frozen.any()  # mask cleared once the update is done

    def test_new_rows_actually_train(self):
        split = quick_split()
        config = quick_config("ftplus")
        m1 = train_initial(config, split.views[0], split.schedule)
        trained = update_ftplus(m1, split.views[1], split.schedule, config)
        untrained = update_ftplus(m1, split.views[1], split.schedule,
                                  dataclasses.replace(config, epochs_incremental=0))
        assert trained.w2[2:4].tobytes() != untrained.w2[2:4].tobytes()

    def test_zero_epochs_changes_nothing_but_the_head(self):
        split = quick_split()
        config = quick_config("ftplus", epochs_incremental=0)
        m1 = train_initial(config, split.views[0], split.schedule)
        m2 = update_ftplus(m1, split.views[1], split.schedule, config)
        assert m2.w1.tobytes() == m1.w1.tobytes()
        assert m2.b1.tobytes() == m1.b1.tobytes()
        assert m2.w2[:2].tobytes() == m1.w2.tobytes()
        assert m2.num_classes == 4

    def test_input_model_never_mutated(self):
        split = quick_split()
        for kind in ("ftplus", "siw", "lwf", "lucir_lite"):
            config = quick_config(kind)
            m1 = train_initial(config, split.views[0], split.schedule)
            before = model_bytes(m1)
            update_state(m1, split.views[1], split.schedule, config)
            assert model_bytes(m1) == before


class TestSIW:
    def test_rows_standardized_and_bias_cleared(self):
        split = quick_split()
        config = quick_config("siw")
        m1 = train_initial(config, split.views[0], split.schedule)
        m2 = update_siw(m1, split.views[1], split.schedule, config)
        np.testing.assert_allclose(m2.w2.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(m2.w2.std(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(m2.b2, 0.0)

    def test_head_rebuilt_from_snapshots(self):
        """The served head is exactly the standardized snapshot bank, so
        past classes keep their introduction-time directions."""
        split = quick_split()
        config = quick_config("siw")
        m1 = train_initial(config, split.views[0], split.schedule)
        m2 = update_siw(m1, split.views[1], split.schedule, config)
        np.testing.assert_array_equal(m2.w2, standardize_rows(m2.snap_w2))
        np.testing.assert_array_equal(m2.snap_w2[:2], m1.snap_w2)


class TestLwF:
    def test_zero_weight_equals_plain_finetune(self):
        """With the distillation weight at zero the teacher term is skipped
        entirely, so the update is bitwise the plain finetune."""
        split = quick_split()
        config = quick_config("lwf", distill_weight=0.0)
        m1 = train_initial(config, split.views[0], split.schedule)
        a = update_lwf(m1, split.views[1], split.schedule, config)
        b = update_finetune(m1, split.views[1], split.schedule, config)
        assert model_bytes(a) == model_bytes(b)

    def test_distillation_zero_at_teacher(self):
        split = quick_split()
        config = quick_config("lwf")
        m1 = train_initial(config, split.views[0], split.schedule)
        loss = distillation_loss(m1, m1, split.views[0].val_x, 2.0, 1.0)
        assert abs(loss) < 1e-12

    def test_distillation_matches_scalar_kl(self):
        """Hand-computed soft-target KL on a 1-sample, 2-class case."""
        def toy(w2_rows):
            return Model(w1=np.eye(2), b1=np.zeros(2),
                         w2=np.array(w2_rows), b2=np.zeros(2),
                         class_first_state=np.ones(2, dtype=np.int64),
                         frozen=np.zeros(2, dtype=bool),
                         snap_w2=np.zeros((2, 2)), snap_b2=np.zeros(2))
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
            split = split_states(gen_synthetic_dataset(spec), 5)
            config = dataclasses.replace(base, distill_weight=distill_weight)
            model = train_initial(config, split.views[0], split.schedule)
            for view in split.views[1:]:
                model = update_state(model, view, split.schedule, config)
            view = split.views[-1]
            preds = np.argmax(model.scores(view.test_x), axis=1)
            _, by_group = per_state_accuracy(preds, view.test_y, split.schedule, 5)
            return float(np.mean([by_group[k] for k in range(1, 5)]))

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
        split = quick_split()
        config = quick_config("lucir_lite")
        m1 = train_initial(config, split.views[0], split.schedule)
        m2 = update_lucir_lite(m1, split.views[1], split.schedule, config)
        scores = m2.scores(split.views[1].test_x)
        assert np.abs(scores).max() <= abs(m2.eta) + 1e-9

    def test_eta_is_trained(self):
        split = quick_split()
        model = train_initial(quick_config("lucir_lite"), split.views[0],
                              split.schedule)
        assert model.eta != ETA_INIT

    def test_feature_distillation_zero_at_teacher(self):
        split = quick_split()
        model = train_initial(quick_config("lucir_lite"), split.views[0],
                              split.schedule)
        loss = feature_distillation_loss(model, model, split.views[0].val_x, 5.0)
        assert abs(loss) < 1e-12

    def test_linear_model_rejected(self):
        split = quick_split()
        config = quick_config("lucir_lite")
        linear = train_initial(quick_config("ftplus"), split.views[0],
                               split.schedule)
        with pytest.raises(SpecError, match="cosine-head"):
            update_lucir_lite(linear, split.views[1], split.schedule, config)

    def test_degenerate_features_stay_finite(self):
        """A dead hidden layer produces zero feature vectors; the norm floor
        must keep cosine scores finite (and zero) instead of dividing by 0."""
        model = Model(w1=np.zeros((4, 3)), b1=np.zeros(4),
                      w2=np.ones((2, 4)), b2=np.zeros(2),
                      class_first_state=np.ones(2, dtype=np.int64),
                      frozen=np.zeros(2, dtype=bool),
                      snap_w2=np.zeros((2, 4)), snap_b2=np.zeros(2),
                      cosine=True)
        scores = model.scores(np.array([[1.0, -2.0, 0.5]]))
        assert np.all(np.isfinite(scores))
        np.testing.assert_array_equal(scores, 0.0)


class TestRunIncremental:
    def test_shapes_states_and_determinism(self):
        split = quick_split(seed=9)
        config = quick_config()
        val, test = run_incremental(config, split, dataset="d0", seed=9)
        assert [lg.state for lg in val] == [1, 2, 3]
        assert [lg.state for lg in test] == [1, 2, 3]
        for s, lg in enumerate(val, start=1):
            assert lg.matrix.shape[1] == split.schedule.classes_through(s)
            np.testing.assert_array_equal(lg.labels, split.views[s - 1].val_y)
            assert lg.dataset == "d0" and lg.backbone == "ftplus"
        val2, _ = run_incremental(config, split, dataset="d0", seed=9)
        for a, b in zip(val, val2):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_dispatch_matches_direct_update(self):
        split = quick_split()
        config = quick_config("siw")
        m1 = train_initial(config, split.views[0], split.schedule)
        via_dispatch = update_state(m1, split.views[1], split.schedule, config)
        direct = update_siw(m1, split.views[1], split.schedule, config)
        assert model_bytes(via_dispatch) == model_bytes(direct)


class TestLockstep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_equals_one_at_a_time(self, kind):
        """Three datasets with distinct seeds trained as one stack: every
        model's val and test logits at every state carry the bits it gets
        when trained alone. Batches of 7 over 30 samples per state end each
        epoch on a partial batch."""
        splits = [quick_split(seed=20 + r) for r in range(3)]
        names, seeds = ["d0", "d1", "d2"], [20, 21, 22]
        config = quick_config(kind, batch_size=7)
        val, test = run_incremental_stack(config, splits, names, seeds)
        for r, split in enumerate(splits):
            alone_val, alone_test = run_incremental(config, split, names[r], seeds[r])
            for got, want in zip(val[r] + test[r], alone_val + alone_test, strict=True):
                assert got.state == want.state
                assert got.dataset == want.dataset == names[r]
                assert got.matrix.tobytes() == want.matrix.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()

    def test_stack_needs_equal_sample_counts(self):
        small = split_states(gen_synthetic_dataset(SynthSpec(
            num_classes=6, feature_dim=8, train_per_class=10, val_per_class=5,
            test_per_class=5, seed=1)), 3)
        with pytest.raises(ValueError, match="cannot be stacked"):
            run_incremental_stack(quick_config(), [quick_split(), small],
                                  ["a", "b"], [0, 1])


class TestGuards:
    def test_labels_outside_group_rejected(self):
        split = quick_split()
        config = quick_config()
        m1 = train_initial(config, split.views[0], split.schedule)
        bad = dataclasses.replace(split.views[1], train_y=split.views[0].train_y)
        with pytest.raises(SpecError, match="new group"):
            update_ftplus(m1, bad, split.schedule, config)

    def test_skipping_a_state_rejected(self):
        split = quick_split()
        config = quick_config()
        m1 = train_initial(config, split.views[0], split.schedule)
        with pytest.raises(SpecError, match="overlap"):
            update_ftplus(m1, split.views[2], split.schedule, config)

    def test_logits_require_matching_state(self):
        split = quick_split()
        config = quick_config()
        m1 = train_initial(config, split.views[0], split.schedule)
        with pytest.raises(SpecError, match="model covers"):
            extract_logits(m1, split.views[1].val_x, split.views[1].val_y, 2,
                           split.schedule)

    def test_mean_loss_hand_case(self):
        model = Model(w1=np.eye(2), b1=np.zeros(2),
                      w2=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                      b2=np.array([0.0, 0.1, -0.1]),
                      class_first_state=np.ones(3, dtype=np.int64),
                      frozen=np.zeros(3, dtype=bool),
                      snap_w2=np.zeros((3, 2)), snap_b2=np.zeros(3))
        x = np.array([[2.0, 1.0]])
        z = [2.0, 1.1, 1.4]
        expect = -math.log(math.exp(z[1]) / sum(math.exp(v) for v in z))
        np.testing.assert_allclose(mean_loss(model, x, np.array([1])), expect,
                                   rtol=1e-12)
