"""Affine score correction and the per-state convex calibration fit.

Two correction layers operate on a score matrix at state s. The classic one
rescales only the newest class group with a single (alpha, beta) pair. The
per-group one keeps one pair per (current state, first-seen state), so the
amount of correction can differ for classes learned at different times.

The fit minimizes mean cross-entropy of the corrected softmax plus an L2
penalty anchored at the identity pair (alpha=1, beta=0). Corrected scores
are linear in the parameters, so the objective is convex and the analytic
gradient is a plain per-group sum of softmax residuals.

``fit_tables`` fits the tables of R references in lockstep: at each state
one Adam run steps all R fits together on (R, n, C) batches. Lockstep is
exact. The shuffle stream is seeded from (config.seed, state) and the
references of one spec have equal validation sizes, so every fit draws the
same permutations and the stack draws them once. Every other operation
acts per reference slice, over the same axis and in the same order as a
fit run alone, so each table gets the bits it would get alone.
``fit_state_pairs`` and ``fit_table`` are the one-reference case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logits import StateLogits
from .schedule import StateSchedule

PROB_FLOOR = 1e-12


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Accepts a single score vector or a matrix of row vectors; float64
    accumulation throughout.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("softmax of an empty score vector is undefined")
    exp = scores - scores.max(axis=-1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true classes.

    ``probs`` may be one probability vector with an integer label, or a
    matrix with one label per row. Probabilities are floored at 1e-12 so
    pathological inputs cannot produce -inf.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = probs[None, :]
        labels = np.asarray([labels])
    labels = np.asarray(labels, dtype=np.int64)
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


@dataclass(frozen=True)
class CalibConfig:
    """Optimizer settings for the calibration fit."""

    epochs: int = 300
    learning_rate: float = 1e-3
    l2_alpha: float = 5e-3
    l2_beta: float = 5e-2
    batch_size: int = 128
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.l2_alpha < 0 or self.l2_beta < 0:
            raise ValueError("L2 penalties must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class CalibrationTable:
    """Triangular bank of (alpha, beta) pairs for states 2..S.

    State s holds one pair per group k in [1, s], i.e. (2+3+...+S) pairs
    and (S+2)(S-1) stored scalars in total. ``alpha`` and ``beta`` are
    read-only float64 arrays of shape (S-1, S): row s-2 holds the pairs
    of groups 1..s of state s, and the cells past a row's state hold the
    identity pair (1, 0).
    """

    def __init__(self, alpha, beta):
        alpha = np.array(alpha, dtype=np.float64)
        beta = np.array(beta, dtype=np.float64)
        num_states = alpha.shape[-1] if alpha.ndim == 2 else 0
        if num_states < 2 or {alpha.shape, beta.shape} != {(num_states - 1, num_states)}:
            raise ValueError(f"a calibration table needs alpha and beta of shape (S-1, S) "
                             f"with S >= 2, got {alpha.shape} and {beta.shape}")
        bad = np.argwhere(~(np.isfinite(alpha) & np.isfinite(beta)))
        if len(bad):
            row, col = (int(i) for i in bad[0])
            raise ValueError(f"non-finite pair at {(row + 2, col + 1)}: "
                             f"({alpha[row, col]}, {beta[row, col]})")
        past = ~np.tri(num_states - 1, num_states, k=1, dtype=bool)
        if np.any(alpha[past] != 1.0) or np.any(beta[past] != 0.0):
            raise ValueError("cells past each state's groups must hold the identity pair")
        alpha.flags.writeable = False
        beta.flags.writeable = False
        self.num_states = num_states
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def identity(cls, num_states: int) -> "CalibrationTable":
        shape = (num_states - 1, num_states)
        return cls(np.ones(shape), np.zeros(shape))

    @classmethod
    def from_pairs(cls, num_states: int, items) -> "CalibrationTable":
        """Build a table from ``((state, group), (alpha, beta))`` items, which
        must name each group 1..s of each state 2..S exactly once."""
        if num_states < 2:
            raise ValueError("a calibration table needs at least 2 states")
        pairs = {}
        for key, pair in items:
            if key in pairs:
                raise ValueError(f"duplicate table entry for (s={key[0]}, k={key[1]})")
            pairs[key] = pair
        expected = {(s, k) for s in range(2, num_states + 1) for k in range(1, s + 1)}
        keys = set(pairs)
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            parts = []
            if missing:
                parts.append(f"missing pairs {missing}")
            if extra:
                parts.append(f"unexpected pairs {extra}")
            raise ValueError("incomplete calibration table: " + "; ".join(parts))
        shape = (num_states - 1, num_states)
        alpha, beta = np.ones(shape), np.zeros(shape)
        for (s, k), (a, b) in pairs.items():
            alpha[s - 2, k - 1], beta[s - 2, k - 1] = a, b
        return cls(alpha, beta)

    def pairs_for_state(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Alpha and beta vectors over groups 1..state."""
        if not 2 <= state <= self.num_states:
            raise ValueError(f"table does not cover state {state}: it covers states "
                             f"up to {self.num_states}, from state 2")
        return self.alpha[state - 2, :state], self.beta[state - 2, :state]

    def collapse_to_single_pair(self) -> "CalibrationTable":
        """Keep only each state's newest-group pair; past groups go identity.

        The result applies the classic single-pair correction of the raw
        new-class scores while leaving past scores untouched.
        """
        newest = np.eye(self.num_states - 1, self.num_states, k=1, dtype=bool)
        return CalibrationTable(np.where(newest, self.alpha, 1.0),
                                np.where(newest, self.beta, 0.0))

    def __eq__(self, other):
        return (
            isinstance(other, CalibrationTable)
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.beta, other.beta)
        )

    def __repr__(self):
        pairs = (self.num_states + 2) * (self.num_states - 1) // 2
        return f"CalibrationTable(num_states={self.num_states}, pairs={pairs})"


def apply_bic(logits: StateLogits, alpha: float, beta: float) -> np.ndarray:
    """Rescale only the newest class group: columns of group s become
    alpha * o + beta, all earlier groups stay raw."""
    if logits.state < 2:
        raise ValueError("state 1 has no past/new split, correction undefined")
    alpha, beta = float(alpha), float(beta)
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError(f"non-finite correction pair ({alpha}, {beta})")
    out = logits.matrix.copy()
    new = logits.schedule.group_slice(logits.state, logits.state)
    out[:, new] = alpha * out[:, new] + beta
    return out


def apply_table(logits: StateLogits, table: CalibrationTable) -> np.ndarray:
    """Apply the per-group pairs of ``table`` for the logits' state."""
    alpha, beta = table.pairs_for_state(logits.state)
    col = logits.schedule.column_groups(logits.state) - 1
    return logits.matrix * alpha[col] + beta[col]


def _group_starts(schedule: StateSchedule, state: int) -> np.ndarray:
    sizes = schedule.classes_per_state[:state]
    return np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)


# Models per block of the full-set loss are chosen so that a block spans
# about this many score entries (1 MiB of float64): a block that stays in
# cache beats one pass over a large stack.
_LOSS_BLOCK_ENTRIES = 1 << 17


def _corrected(matrix, alpha, beta, col) -> np.ndarray:
    """Scores of a stack (R, n, C) corrected by each reference's pairs
    (R, s); ``col`` maps columns to groups."""
    out = matrix * alpha[:, col][:, None, :]
    out += beta[:, col][:, None, :]
    return out


def _losses(matrix, labels, alpha, beta, col, config: CalibConfig) -> np.ndarray:
    """``regularized_loss`` of each reference of a stack: matrix (R, n, C),
    labels (R, n), alpha and beta (R, s).

    Only the label entries of the softmax are divided out; they carry the
    same bits as in the full softmax.
    """
    corrected = _corrected(matrix, alpha, beta, col)
    corrected -= corrected.max(axis=-1, keepdims=True)
    exp = np.exp(corrected, out=corrected)
    refs, n = labels.shape
    picked = exp[np.arange(refs)[:, None], np.arange(n), labels] / exp.sum(axis=-1)
    data = np.mean(-np.log(np.maximum(picked, PROB_FLOOR)), axis=-1)
    penalty = (config.l2_alpha * np.sum((alpha - 1.0) ** 2, axis=-1)
               + config.l2_beta * np.sum(beta**2, axis=-1))
    return data + penalty


def regularized_loss(
    matrix: np.ndarray,
    labels: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    schedule: StateSchedule,
    state: int,
    config: CalibConfig,
) -> float:
    """Mean corrected cross-entropy plus the identity-anchored L2 penalty."""
    return float(_losses(matrix[None], np.asarray(labels)[None], alpha[None], beta[None],
                         schedule.column_groups(state) - 1, config)[0])


def _gradient(matrix, labels, alpha, beta, col, starts, config: CalibConfig):
    """``loss_gradient`` of a stack: matrix (R, b, C), labels (R, b),
    alpha and beta (R, s); returns (R, s) gradients."""
    residual = softmax(_corrected(matrix, alpha, beta, col))
    refs, b = labels.shape
    residual[np.arange(refs)[:, None], np.arange(b), labels] -= 1.0
    residual /= b

    per_col_alpha = (residual * matrix).sum(axis=1)
    per_col_beta = residual.sum(axis=1)
    grad_alpha = np.add.reduceat(per_col_alpha, starts, axis=1)
    grad_beta = np.add.reduceat(per_col_beta, starts, axis=1)
    grad_alpha += 2.0 * config.l2_alpha * (alpha - 1.0)
    grad_beta += 2.0 * config.l2_beta * beta
    return grad_alpha, grad_beta


def loss_gradient(
    matrix: np.ndarray,
    labels: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    schedule: StateSchedule,
    state: int,
    config: CalibConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``regularized_loss`` w.r.t. alpha and beta.

    Corrected scores are linear in the pairs, so the gradient per group is
    the softmax residual (q - onehot) summed over the group's columns,
    weighted by the raw scores for alpha and by 1 for beta, averaged over
    the batch, plus the penalty gradient.
    """
    if matrix.shape[0] == 0:
        raise ValueError("gradient of an empty batch is undefined")
    grad_alpha, grad_beta = _gradient(
        matrix[None], np.asarray(labels)[None], alpha[None], beta[None],
        schedule.column_groups(state) - 1, _group_starts(schedule, state), config)
    return grad_alpha[0], grad_beta[0]


@dataclass
class StateFit:
    """Fitted pairs for one state, with the fit's loss trajectory endpoints."""

    state: int
    alpha: np.ndarray
    beta: np.ndarray
    initial_loss: float
    final_loss: float


class _Adam:
    """Plain Adam with bias correction over a stack of parameter vectors."""

    def __init__(self, shape: tuple[int, ...], config: CalibConfig):
        self.lr = config.learning_rate
        self.b1 = config.adam_beta1
        self.b2 = config.adam_beta2
        self.eps = config.adam_eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update ``params`` in place."""
        self.t += 1
        self.m *= self.b1
        self.m += (1.0 - self.b1) * grad
        self.v *= self.b2
        self.v += (1.0 - self.b2) * grad**2
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _fit_states(stack: list[StateLogits], config: CalibConfig) -> list[StateFit]:
    """Fit one state's pairs for R references in lockstep.

    ``stack`` holds each reference's validation logits at one state; all
    must share the schedule, the state and the sample count.
    """
    first = stack[0]
    s, schedule = first.state, first.schedule
    if s < 2:
        raise ValueError("state 1 has no pairs to fit")
    for logits in stack:
        if (logits.state, logits.schedule, logits.matrix.shape) != (
                s, schedule, first.matrix.shape):
            raise ValueError("stacked fits need one state, schedule and shape")
        counts = logits.group_counts()
        missing = [k for k, n in counts.items() if n == 0]
        if missing:
            raise ValueError(f"validation set has no samples for groups {missing}")

    col = schedule.column_groups(s) - 1
    starts = _group_starts(schedule, s)
    matrix = np.stack([logits.matrix for logits in stack])
    labels = np.stack([logits.labels for logits in stack])
    refs, n, cols = matrix.shape
    params = np.concatenate([np.ones((refs, s)), np.zeros((refs, s))], axis=1)
    block = max(1, _LOSS_BLOCK_ENTRIES // (n * cols))

    def full_losses():
        return np.concatenate([
            _losses(matrix[lo:lo + block], labels[lo:lo + block],
                    params[lo:lo + block, :s], params[lo:lo + block, s:], col, config)
            for lo in range(0, refs, block)])

    best_loss = full_losses()
    initial_loss = best_loss.copy()
    best = params.copy()

    rng = np.random.default_rng([config.seed, s])
    opt = _Adam(params.shape, config)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        shuffled, shuffled_labels = matrix[:, order], labels[:, order]
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            ga, gb = _gradient(shuffled[:, batch], shuffled_labels[:, batch],
                               params[:, :s], params[:, s:], col, starts, config)
            opt.step(params, np.concatenate([ga, gb], axis=1))
        loss = full_losses()
        improved = loss < best_loss
        best_loss[improved] = loss[improved]
        best[improved] = params[improved]
    return [StateFit(s, best[r, :s].copy(), best[r, s:].copy(), float(initial_loss[r]),
                     float(best_loss[r]))
            for r in range(refs)]


def fit_state_pairs(val_logits: StateLogits, config: CalibConfig) -> StateFit:
    """Fit the (alpha, beta) pairs of one state on its validation scores.

    Starts from the identity pairs and runs Adam over shuffled mini-batches
    for ``config.epochs`` passes. The iterate with the lowest full-set
    regularized loss is kept, so the result never ends above the identity
    initialization. The shuffling stream is seeded from (config.seed,
    state), which makes fits independent of the order states are visited.
    """
    return _fit_states([val_logits], config)[0]


def _by_state(per_state_val_logits: list[StateLogits]) -> dict[int, StateLogits]:
    """Index one reference's validation logits by state, checking that they
    cover exactly states 2..S of one schedule."""
    if not per_state_val_logits:
        raise ValueError("need validation logits for states 2..S")
    schedule = per_state_val_logits[0].schedule
    num_states = schedule.num_states
    by_state = {}
    for logits in per_state_val_logits:
        if logits.schedule != schedule:
            raise ValueError("all validation logits must share one schedule")
        if logits.state in by_state:
            raise ValueError(f"duplicate validation logits for state {logits.state}")
        by_state[logits.state] = logits
    expected = set(range(2, num_states + 1))
    missing = sorted(expected - set(by_state))
    if missing:
        raise ValueError(f"missing validation logits for states {missing}")
    unexpected = sorted(set(by_state) - expected)
    if unexpected:
        raise ValueError(
            f"unexpected validation logits for states {unexpected}; "
            "the fit covers states 2..S")
    return by_state


def fit_tables(
    per_reference_val_logits: list[list[StateLogits]], config: CalibConfig
) -> list[tuple[CalibrationTable, list[StateFit]]]:
    """Fit the tables of R references in lockstep, one stacked fit per state.

    Each entry of ``per_reference_val_logits`` is one reference's
    validation logits for states 2..S; the references must share one
    schedule and have equal validation sizes. Returns, per reference, the
    full table and its per-state fits.
    """
    by_state = [_by_state(logits) for logits in per_reference_val_logits]
    num_states = per_reference_val_logits[0][0].schedule.num_states
    shape = (len(by_state), num_states - 1, num_states)
    alpha, beta = np.ones(shape), np.zeros(shape)
    fits = []
    for s in range(2, num_states + 1):
        state_fits = _fit_states([states[s] for states in by_state], config)
        alpha[:, s - 2, :s] = [fit.alpha for fit in state_fits]
        beta[:, s - 2, :s] = [fit.beta for fit in state_fits]
        fits.append(state_fits)
    return [(CalibrationTable(alpha[r], beta[r]), [state_fits[r] for state_fits in fits])
            for r in range(len(by_state))]


def fit_table(
    per_state_val_logits: list[StateLogits], config: CalibConfig
) -> tuple[CalibrationTable, list[StateFit]]:
    """Fit every state 2..S independently and assemble the full table."""
    return fit_tables([per_state_val_logits], config)[0]
