"""Core correction-layer and convex-fit tests.

The analytic pieces are checked against independent oracles: elementwise
reimplementations with plain Python floats, central finite differences,
and a block-coordinate grid search for the full fit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_il import calibration, cli
from calib_il.calibration import (GRAD_TOL, CalibConfig, CalibrationTable,
                                  StateFit, apply_bic, apply_table, fit_state,
                                  loss_gradient, regularized_loss, softmax)
from calib_il.errors import NumericError
from calib_il.logits import StateLogits
from calib_il.schedule import StateSchedule


def make_logits(seed, sizes, state=None, n=30, scale=3.0):
    sched = StateSchedule(sizes)
    state = state or sched.num_states
    cols = sched.classes_through(state)
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, scale, (n, cols))
    labels = rng.integers(0, cols, n)
    return StateLogits(state, matrix, labels, sched)


class TestSoftmax:
    def test_matches_scalar_definition(self):
        scores = np.array([1.0, 2.0, -0.5])
        expect = [math.exp(v) / sum(math.exp(u) for u in scores) for v in scores]
        np.testing.assert_allclose(softmax(scores), expect, rtol=1e-15)

    def test_overflow_safe(self):
        out = softmax(np.array([[1e4, 1e4 - 1.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.empty((0,)))

    @settings(deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_rows_sum_to_one_and_shift_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 5, (4, 6))
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)
        np.testing.assert_allclose(softmax(z + shift), p, atol=1e-12)


class TestCalibrationTable:
    def test_identity_has_triangular_count(self):
        for S in (2, 5, 10):
            table = CalibrationTable.identity(S)
            assert table.alpha.shape == table.beta.shape == (S - 1, S)
            pairs = sum(len(table.pairs_for_state(s)[0]) for s in range(2, S + 1))
            assert pairs == (S + 2) * (S - 1) // 2

    def test_missing_pair_named(self):
        entries = {(s, k): (1.0, 0.0) for s in (2, 3) for k in range(1, s + 1)}
        del entries[(3, 2)]
        with pytest.raises(ValueError, match=r"missing pairs \[\(3, 2\)\]"):
            CalibrationTable.from_pairs(3, entries.items())

    def test_extra_pair_named(self):
        entries = {(s, k): (1.0, 0.0) for s in (2, 3) for k in range(1, s + 1)}
        entries[(4, 1)] = (1.0, 0.0)
        with pytest.raises(ValueError, match=r"unexpected pairs \[\(4, 1\)\]"):
            CalibrationTable.from_pairs(3, entries.items())

    def test_non_finite_rejected(self):
        entries = {(2, 1): (1.0, 0.0), (2, 2): (np.nan, 0.0)}
        with pytest.raises(ValueError, match="non-finite"):
            CalibrationTable.from_pairs(2, entries.items())

    def test_array_layout_checked(self):
        with pytest.raises(ValueError, match="shape"):
            CalibrationTable(np.ones((2, 3)), np.zeros((3, 2)))
        alpha = np.ones((2, 3))
        alpha[0, 2] = 2.0  # state 2 has no group 3
        with pytest.raises(ValueError, match="identity pair"):
            CalibrationTable(alpha, np.zeros((2, 3)))
        table = CalibrationTable.identity(3)
        with pytest.raises(ValueError, match="read-only"):
            table.alpha[0, 0] = 2.0

    def test_collapse_keeps_only_newest_pair(self):
        entries = {(s, k): (2.0 + s, 0.5 * k) for s in (2, 3) for k in range(1, s + 1)}
        collapsed = CalibrationTable.from_pairs(3, entries.items()).collapse_to_single_pair()
        assert (collapsed.alpha[1, 2], collapsed.beta[1, 2]) == (5.0, 1.5)
        assert (collapsed.alpha[1, 0], collapsed.beta[1, 0]) == (1.0, 0.0)
        assert (collapsed.alpha[1, 1], collapsed.beta[1, 1]) == (1.0, 0.0)


class TestApplyCorrections:
    def test_bic_elementwise_oracle(self):
        """Newest-group columns become a*o+b, all earlier columns stay raw."""
        logits = make_logits(1, (2, 3), n=8)
        out = apply_bic(logits, 1.7, -0.3)
        for i in range(8):
            for j in range(5):
                if j >= 2:
                    assert out[i, j] == 1.7 * logits.matrix[i, j] + (-0.3)
                else:
                    assert out[i, j] == logits.matrix[i, j]

    def test_table_elementwise_oracle(self):
        logits = make_logits(2, (1, 2, 2), n=6)
        entries = {(2, 1): (0.5, 0.1), (2, 2): (2.0, -1.0),
                   (3, 1): (1.1, 0.2), (3, 2): (0.9, -0.4), (3, 3): (3.0, 0.0)}
        table = CalibrationTable.from_pairs(3, entries.items())
        out = apply_table(logits, table)
        pair_by_col = [(1.1, 0.2), (0.9, -0.4), (0.9, -0.4), (3.0, 0.0), (3.0, 0.0)]
        for i in range(6):
            for j, (a, b) in enumerate(pair_by_col):
                np.testing.assert_allclose(out[i, j], a * logits.matrix[i, j] + b,
                                           rtol=1e-15)

    def test_state1_rejected(self):
        logits = make_logits(3, (2, 2), state=1)
        with pytest.raises(ValueError):
            apply_bic(logits, 1.0, 0.0)
        with pytest.raises(ValueError):
            apply_table(logits, CalibrationTable.identity(2))

    def test_table_too_small_rejected(self):
        logits = make_logits(4, (1, 1, 1))
        with pytest.raises(ValueError, match="covers states up to"):
            apply_table(logits, CalibrationTable.identity(2))

    def test_reduction_to_single_pair(self):
        """With all past pairs at identity, the per-group correction and the
        single-pair correction agree to float precision."""
        rng = np.random.default_rng(9)
        for S in (2, 4, 6):
            sizes = tuple(int(v) for v in rng.integers(1, 4, S))
            logits = make_logits(100 + S, sizes, n=20)
            a, b = 1.9, -0.7
            entries = {(s, k): (1.0, 0.0)
                       for s in range(2, S + 1) for k in range(1, s + 1)}
            entries[(S, S)] = (a, b)
            table = CalibrationTable.from_pairs(S, entries.items())
            np.testing.assert_allclose(apply_table(logits, table),
                                       apply_bic(logits, a, b), atol=1e-12)

    def test_identity_table_is_noop(self):
        logits = make_logits(5, (2, 2, 2))
        out = apply_table(logits, CalibrationTable.identity(3))
        np.testing.assert_array_equal(out, logits.matrix)


def numeric_gradient(matrix, labels, alpha, beta, sched, state, config, h=1e-5):
    """Central finite differences of the regularized loss."""
    ga = np.zeros_like(alpha)
    gb = np.zeros_like(beta)
    for i in range(len(alpha)):
        ap, am = alpha.copy(), alpha.copy()
        ap[i] += h
        am[i] -= h
        ga[i] = (regularized_loss(matrix, labels, ap, beta, sched, state, config)
                 - regularized_loss(matrix, labels, am, beta, sched, state, config)) / (2 * h)
        bp, bm = beta.copy(), beta.copy()
        bp[i] += h
        bm[i] -= h
        gb[i] = (regularized_loss(matrix, labels, alpha, bp, sched, state, config)
                 - regularized_loss(matrix, labels, alpha, bm, sched, state, config)) / (2 * h)
    return ga, gb


class TestGradient:
    def test_matches_finite_differences(self):
        config = CalibConfig()
        rng = np.random.default_rng(42)
        for _ in range(20):
            S = int(rng.integers(2, 6))
            sizes = tuple(int(v) for v in rng.integers(1, 4, S))
            sched = StateSchedule(sizes)
            cols = sched.classes_through(S)
            n = int(rng.integers(5, 40))
            matrix = rng.normal(0, 3, (n, cols))
            labels = rng.integers(0, cols, n)
            alpha = rng.normal(1, 0.5, S)
            beta = rng.normal(0, 0.5, S)
            ga, gb = loss_gradient(matrix, labels, alpha, beta, sched, S, config)
            na, nb = numeric_gradient(matrix, labels, alpha, beta, sched, S, config)
            np.testing.assert_allclose(ga, na, rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(gb, nb, rtol=1e-4, atol=1e-8)

    def test_hessian_matches_finite_differences_of_gradient(self):
        config = CalibConfig()
        rng = np.random.default_rng(43)
        h = 1e-6
        for _ in range(10):
            S = int(rng.integers(2, 6))
            sched = StateSchedule(tuple(int(v) for v in rng.integers(1, 4, S)))
            cols = sched.classes_through(S)
            n = int(rng.integers(5, 40))
            matrix = rng.normal(0, 3, (n, cols))
            labels = rng.integers(0, cols, n)
            params = np.concatenate([rng.normal(1, 0.5, S), rng.normal(0, 0.5, S)])
            numeric = np.empty((2 * S, 2 * S))
            for j in range(2 * S):
                up, down = params.copy(), params.copy()
                up[j] += h
                down[j] -= h
                numeric[:, j] = (
                    np.concatenate(loss_gradient(matrix, labels, up[:S], up[S:], sched, S,
                                                 config))
                    - np.concatenate(loss_gradient(matrix, labels, down[:S], down[S:],
                                                   sched, S, config))) / (2 * h)
            col = sched.column_groups(S) - 1
            q = softmax(matrix * params[:S][col] + params[S:][col])
            analytic = calibration._hessian(matrix, q, calibration._group_starts(sched, S),
                                            config)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_single_sample_closed_form(self):
        """One sample, two one-class groups: gradients reduce to softmax
        residuals times the raw score (alpha) or one (beta), plus the
        penalty pull toward identity. Computed here with plain floats."""
        sched = StateSchedule((1, 1))
        config = CalibConfig()
        o1, o2 = 0.4, -1.3
        a = [1.2, 0.8]
        b = [0.1, -0.2]
        z1, z2 = a[0] * o1 + b[0], a[1] * o2 + b[1]
        e1, e2 = math.exp(z1), math.exp(z2)
        q1, q2 = e1 / (e1 + e2), e2 / (e1 + e2)
        label = 0
        expect_ga = [(q1 - 1.0) * o1 + 2 * config.l2_alpha * (a[0] - 1.0),
                     q2 * o2 + 2 * config.l2_alpha * (a[1] - 1.0)]
        expect_gb = [(q1 - 1.0) + 2 * config.l2_beta * b[0],
                     q2 + 2 * config.l2_beta * b[1]]
        ga, gb = loss_gradient(np.array([[o1, o2]]), np.array([label]),
                               np.array(a), np.array(b), sched, 2, config)
        np.testing.assert_allclose(ga, expect_ga, rtol=1e-12)
        np.testing.assert_allclose(gb, expect_gb, rtol=1e-12)

    def test_identity_penalty_gradient_zero(self):
        """At the identity pairs the penalty contributes nothing, so the
        gradient is purely the data term."""
        logits = make_logits(7, (2, 2))
        zero_pen = CalibConfig(l2_alpha=0.0, l2_beta=0.0)
        with_pen = CalibConfig()
        a, b = np.ones(2), np.zeros(2)
        ga0, gb0 = loss_gradient(logits.matrix, logits.labels, a, b,
                                 logits.schedule, 2, zero_pen)
        ga1, gb1 = loss_gradient(logits.matrix, logits.labels, a, b,
                                 logits.schedule, 2, with_pen)
        np.testing.assert_allclose(ga0, ga1, atol=1e-15)
        np.testing.assert_allclose(gb0, gb1, atol=1e-15)


class TestExactLoss:
    """The loss is the function its derivatives differentiate, also where
    a label's softmax probability underflows."""

    # Schedule (1, 1) at state 2; the last sample's label trails by a score
    # gap of 40, so its probability is about 4e-18.
    MATRIX = np.array([[0.5, -1.0], [1.0, 0.0], [40.0, 0.0]])
    LABELS = np.array([0, 1, 1])

    def test_loss_of_an_underflowing_sample_is_exact(self):
        sched, config = StateSchedule((1, 1)), CalibConfig()
        a, b = [1.1, 0.9], [0.2, -0.1]
        terms = []
        for row, label in zip(self.MATRIX.tolist(), self.LABELS.tolist()):
            z = [a[k] * v + b[k] for k, v in enumerate(row)]
            top = max(z)
            terms.append(top + math.log(sum(math.exp(v - top) for v in z)) - z[label])
        assert terms[2] > 30  # past the -log(1e-12) = 27.6 of a clamped probability
        expect = (sum(terms) / 3 + config.l2_alpha * sum((v - 1) ** 2 for v in a)
                  + config.l2_beta * sum(v**2 for v in b))
        got = regularized_loss(self.MATRIX, self.LABELS, np.array(a), np.array(b), sched, 2,
                               config)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_gradient_matches_finite_differences_at_an_underflowing_sample(self):
        sched, config = StateSchedule((1, 1)), CalibConfig()
        a, b = np.array([1.1, 0.9]), np.array([0.2, -0.1])
        ga, gb = loss_gradient(self.MATRIX, self.LABELS, a, b, sched, 2, config)
        na, nb = numeric_gradient(self.MATRIX, self.LABELS, a, b, sched, 2, config)
        np.testing.assert_allclose(ga, na, rtol=1e-6)
        np.testing.assert_allclose(gb, nb, rtol=1e-6)

    def test_diverging_lwf_scores_still_certify(self, tmp_path, monkeypatch):
        """A valid spec with the default penalties whose lwf scores reach
        about 1e5: its fits start with validation samples far below any
        probability floor, and each certifies."""
        monkeypatch.delenv("CALIB_IL_SEED", raising=False)
        spec = {"seed": 4, "data": {"num_classes": 7, "feature_dim": 8,
                                    "train_per_class": 20, "val_per_class": 2,
                                    "test_per_class": 1, "noise_scale": 1.0,
                                    "num_references": 1, "num_targets": 1},
                "schedule": {"classes_per_state": [1, 4, 1, 1]},
                "backbone": {"kind": "lwf", "hidden_dim": 16, "epochs_initial": 5,
                             "epochs_incremental": 1, "batch_size": 1, "learning_rate": 0.1}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for command in ("run-reference", "run-target"):
            assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 0


def realizable_case(seed, n=1500, sizes=(2, 2), scale=1.8):
    """Labels drawn from the logits' own softmax, then the newest group's
    columns inflated by a pure scale factor. The best correction is close
    to (1, 0) for the old group and (1/scale, 0) for the new one."""
    rng = np.random.default_rng(seed)
    cols = sum(sizes)
    z = rng.normal(0.0, 2.0, (n, cols))
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(cols, p=row) for row in p])
    corrupted = z.copy()
    corrupted[:, sizes[0]:] *= scale
    sched = StateSchedule(sizes)
    return StateLogits(2, corrupted, labels, sched)


def grid_pair(loss_at, a0, b0):
    """Two-stage grid over one (alpha, beta) pair: coarse scan of
    [0,3]x[-2,2], then a refined scan around the best coarse cell."""
    alphas = np.linspace(0.0, 3.0, 31)
    betas = np.linspace(-2.0, 2.0, 21)
    best = (np.inf, a0, b0)
    for a in alphas:
        for b in betas:
            loss = loss_at(a, b)
            if loss < best[0]:
                best = (loss, a, b)
    da, db = alphas[1] - alphas[0], betas[1] - betas[0]
    for a in np.linspace(best[1] - da, best[1] + da, 41):
        for b in np.linspace(best[2] - db, best[2] + db, 41):
            loss = loss_at(a, b)
            if loss < best[0]:
                best = (loss, a, b)
    return best


def block_grid_search(logits, config, rounds=2):
    """Alternating two-stage grid over the two pairs of an S=2 problem.

    The objective is convex, so cycling the exact 2-D minimization between
    the pair blocks converges to the global optimum up to grid resolution;
    no gradients involved, which makes it a fair oracle for the fit.
    """
    m, y, sched = logits.matrix, logits.labels, logits.schedule
    a1, b1, a2, b2 = 1.0, 0.0, 1.0, 0.0
    best = np.inf
    for _ in range(rounds):
        best, a2, b2 = grid_pair(
            lambda a, b: regularized_loss(m, y, np.array([a1, a]),
                                          np.array([b1, b]), sched, 2, config),
            a2, b2)
        best, a1, b1 = grid_pair(
            lambda a, b: regularized_loss(m, y, np.array([a, a2]),
                                          np.array([b, b2]), sched, 2, config),
            a1, b1)
    return best


class TestFit:
    def test_final_never_above_identity(self):
        config = CalibConfig()
        for seed in (0, 1, 2):
            logits = make_logits(seed, (2, 2, 2), n=60)
            fit = fit_state(logits, config)
            assert fit.final_loss <= fit.initial_loss

    def test_matches_grid_search_oracle(self):
        config = CalibConfig()
        logits = realizable_case(1)
        fit = fit_state(logits, config)
        oracle = block_grid_search(logits, config)
        assert abs(fit.final_loss - oracle) < 1e-4

    def test_recovers_pure_scale_corruption(self):
        """Scale-only corruption by 1.8 should fit alpha near 1/1.8 for the
        new group and leave the old group near identity."""
        fit = fit_state(realizable_case(3), CalibConfig())
        assert abs(fit.alpha[1] - 1 / 1.8) < 0.08
        assert abs(fit.alpha[0] - 1.0) < 0.08
        assert abs(fit.beta[0]) < 0.1 and abs(fit.beta[1]) < 0.1

    def test_identity_data_stays_near_identity(self):
        """Uncorrupted realizable scores need no correction; the penalty
        keeps the fit close to (1, 0)."""
        fit = fit_state(realizable_case(4, scale=1.0), CalibConfig())
        np.testing.assert_allclose(fit.alpha, 1.0, atol=0.08)
        np.testing.assert_allclose(fit.beta, 0.0, atol=0.08)

    def test_state1_rejected(self):
        logits = make_logits(6, (2, 2), state=1)
        with pytest.raises(ValueError):
            fit_state(logits, CalibConfig())

    def test_empty_group_rejected(self):
        sched = StateSchedule((2, 2))
        rng = np.random.default_rng(0)
        matrix = rng.normal(0, 1, (10, 4))
        labels = np.full(10, 3)  # nothing from group 1
        logits = StateLogits(2, matrix, labels, sched)
        with pytest.raises(ValueError, match=r"groups \[1\]"):
            fit_state(logits, CalibConfig())

    def test_duplicate_batch_invariance(self):
        """Loss and gradient are per-sample means, so duplicating every
        sample changes neither."""
        logits = make_logits(8, (2, 2), n=16)
        doubled = np.vstack([logits.matrix, logits.matrix])
        dlabels = np.concatenate([logits.labels, logits.labels])
        config = CalibConfig()
        rng = np.random.default_rng(0)
        a, b = rng.normal(1, 0.3, 2), rng.normal(0, 0.3, 2)
        args = (a, b, logits.schedule, 2, config)
        np.testing.assert_allclose(
            regularized_loss(logits.matrix, logits.labels, *args),
            regularized_loss(doubled, dlabels, *args), rtol=1e-13)
        ga, gb = loss_gradient(logits.matrix, logits.labels, *args)
        ga2, gb2 = loss_gradient(doubled, dlabels, *args)
        np.testing.assert_allclose(ga, ga2, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(gb, gb2, rtol=1e-12, atol=1e-15)

    def test_deterministic_and_state_order_free(self):
        """A fit keeps no state between calls, so fitting state 3 gives the
        same pairs whether or not state 2 was fitted first."""
        config = CalibConfig()
        s3 = make_logits(11, (2, 2, 2), state=3, n=40)
        s2 = make_logits(12, (2, 2, 2), state=2, n=40)
        direct = fit_state(s3, config)
        fit_state(s2, config)
        after = fit_state(s3, config)
        np.testing.assert_array_equal(direct.alpha, after.alpha)
        np.testing.assert_array_equal(direct.beta, after.beta)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.floats(0.5, 10.0), st.integers(2, 5),
           st.booleans())
    def test_every_fit_is_certified(self, seed, scale, num_states, realizable):
        """At every returned fit the gradient norm is within the tolerance,
        on random labels and on labels drawn from the scores' own softmax
        with the newest group inflated."""
        rng = np.random.default_rng(seed)
        sched = StateSchedule(tuple(int(v) for v in rng.integers(1, 4, num_states)))
        cols = sched.classes_through(num_states)
        n = int(rng.integers(20, 200))
        z = rng.normal(0.0, scale, (n, cols))
        if realizable:
            labels = np.array([rng.choice(cols, p=row) for row in softmax(z)])
            z[:, sched.group_slice(num_states, num_states)] *= 1.8
        else:
            labels = rng.integers(0, cols, n)
        # Every group needs a sample: give row k the first class of group k+1.
        labels[:num_states] = np.cumsum((0,) + sched.classes_per_state[:-1])
        config = CalibConfig()
        fit = fit_state(StateLogits(num_states, z, labels, sched), config)
        grad = np.concatenate(loss_gradient(z, labels, fit.alpha, fit.beta, sched,
                                            num_states, config))
        assert np.linalg.norm(grad) <= GRAD_TOL
        assert fit.grad_norm == np.linalg.norm(grad)
        assert fit.final_loss <= fit.initial_loss

    @pytest.mark.parametrize("scale,max_steps", [(1e200, 50), (3.0, 1)],
                             ids=["huge-scores", "step-cap"])
    def test_uncertified_fit_raises(self, scale, max_steps, monkeypatch):
        """Scores of a diverged backbone overflow the Hessian, and a fit
        still above the tolerance at the step cap is not certified."""
        monkeypatch.setattr(calibration, "MAX_NEWTON_STEPS", max_steps)
        logits = make_logits(13, (2, 2), n=40, scale=scale)
        logits.dataset = "ref_4"
        with pytest.raises(NumericError, match="dataset 'ref_4', state 2: calibration fit"):
            fit_state(logits, CalibConfig())


class TestFitTable:
    def make_states(self, seed, sizes, n=30):
        sched = StateSchedule(sizes)
        rng = np.random.default_rng(seed)
        out = []
        for s in range(2, sched.num_states + 1):
            cols = sched.classes_through(s)
            matrix = rng.normal(0, 2, (n, cols))
            labels = rng.integers(0, cols, n)
            out.append(StateLogits(s, matrix, labels, sched))
        return out

    def test_assembles_complete_table(self):
        logits = self.make_states(0, (2, 1, 2))
        fits = [fit_state(lg, CalibConfig()) for lg in logits]
        table = CalibrationTable.from_fits(fits)
        assert table.num_states == 3
        assert [f.state for f in fits] == [2, 3]
        assert all(f.final_loss <= f.initial_loss for f in fits)
        assert all(f.grad_norm <= GRAD_TOL for f in fits)
        for fit in fits:
            alpha, beta = table.pairs_for_state(fit.state)
            assert alpha.tobytes() == fit.alpha.tobytes()
            assert beta.tobytes() == fit.beta.tobytes()

    def test_missing_state_rejected(self):
        logits = self.make_states(1, (2, 1, 2, 1))
        fits = [fit_state(lg, CalibConfig()) for lg in logits]
        with pytest.raises(ValueError, match=r"missing pairs \[\(3, 1\), \(3, 2\), \(3, 3\)\]"):
            CalibrationTable.from_fits([fits[0], fits[2]])

    def test_state_one_rejected(self):
        # State 1 has a single group and nothing to correct: it cannot be
        # fitted, and a fit that claims it does not belong in a table.
        logits = self.make_states(3, (2, 1, 2))
        sched = logits[0].schedule
        rng = np.random.default_rng(30)
        first = StateLogits(1, rng.normal(0, 2, (30, 2)), rng.integers(0, 2, 30), sched)
        with pytest.raises(ValueError, match="state 1 has no pairs to fit"):
            fit_state(first, CalibConfig())
        fits = [fit_state(lg, CalibConfig()) for lg in logits]
        claimed = StateFit(1, np.ones(1), np.zeros(1), 0.0, 0.0, 0, 0.0)
        with pytest.raises(ValueError, match=r"unexpected pairs \[\(1, 1\)\]"):
            CalibrationTable.from_fits([claimed] + fits)

    def test_duplicate_state_rejected(self):
        logits = self.make_states(2, (2, 2))
        fits = [fit_state(lg, CalibConfig()) for lg in logits]
        with pytest.raises(ValueError, match="duplicate"):
            CalibrationTable.from_fits(fits + fits)

    def test_fit_tables_equals_one_at_a_time(self):
        """References of unequal validation sizes fitted state by state,
        interleaved as a streamed reference stack fits them, each get the
        bits they get when fitted alone, one reference after another."""
        refs = [self.make_states(40 + r, (9, 9, 2), n=30 + 5 * r) for r in range(3)]
        config = CalibConfig()
        interleaved = [[] for _ in refs]
        for state_logits in zip(*refs):
            for fits, logits in zip(interleaved, state_logits):
                fits.append(fit_state(logits, config))
        for logits, fits in zip(refs, interleaved, strict=True):
            alone_fits = [fit_state(lg, config) for lg in logits]
            assert CalibrationTable.from_fits(fits) == CalibrationTable.from_fits(alone_fits)
            for got, want in zip(fits, alone_fits, strict=True):
                assert got.state == want.state
                assert got.alpha.tobytes() == want.alpha.tobytes()
                assert got.beta.tobytes() == want.beta.tobytes()
                assert got.initial_loss == want.initial_loss
                assert got.final_loss == want.final_loss


class TestCalibConfig:
    def test_defaults(self):
        config = CalibConfig()
        assert config.l2_alpha == 5e-3
        assert config.l2_beta == 5e-2

    @pytest.mark.parametrize("bad", [
        dict(l2_alpha=-1e-3), dict(l2_beta=-1e-3), dict(l2_alpha=np.inf),
        dict(l2_beta=np.nan), dict(l2_alpha=np.nan),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            CalibConfig(**bad)
