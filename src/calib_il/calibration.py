"""Affine score correction and the per-state convex calibration fit.

Two correction layers operate on a score matrix at state s. The classic one
rescales only the newest class group with a single (alpha, beta) pair. The
per-group one keeps one pair per (current state, first-seen state), so the
amount of correction can differ for classes learned at different times.

The fit minimizes mean cross-entropy of the corrected softmax plus an L2
penalty anchored at the identity pair (alpha=1, beta=0). Corrected scores
are linear in the parameters, so the objective is convex, the analytic
gradient is a plain per-group sum of softmax residuals, and the Hessian is
the mean of J^T (diag q - q q^T) J over samples plus the penalty's diagonal.
The loss is exact (logsumexp minus the label's score, no probability
floor): the very convex function that the gradient and Hessian differentiate.
``fit_state`` solves it with damped Newton steps until the gradient norm is
below ``GRAD_TOL``; a fit that cannot be certified raises ``NumericError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .logits import StateLogits
from .schedule import StateSchedule


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Accepts a single score vector or a matrix of row vectors; float64
    accumulation throughout.
    """
    scores = np.array(scores, dtype=np.float64)  # a copy, normalized in place
    if scores.size == 0:
        raise ValueError("softmax of an empty score vector is undefined")
    return _softmax_in_place(scores)


def _softmax_in_place(scores: np.ndarray) -> np.ndarray:
    """``softmax`` of float64 ``scores``, computed in their own buffer."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


@dataclass(frozen=True)
class CalibConfig:
    """Penalty weights of the calibration objective."""

    l2_alpha: float = 5e-3
    l2_beta: float = 5e-2

    def __post_init__(self):
        if not (0 <= self.l2_alpha < np.inf and 0 <= self.l2_beta < np.inf):
            raise ValueError("L2 penalties must be finite and >= 0")


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

    @classmethod
    def from_fits(cls, fits) -> "CalibrationTable":
        """The table of one reference's ``StateFit``s, which must cover
        states 2..S once each."""
        return cls.from_pairs(len(fits) + 1, (
            ((fit.state, k), pair) for fit in fits
            for k, pair in enumerate(zip(fit.alpha, fit.beta), start=1)))

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
    return _corrected(logits.matrix, alpha, beta, logits.schedule.column_groups(logits.state) - 1)


def _group_starts(schedule: StateSchedule, state: int) -> np.ndarray:
    sizes = schedule.classes_per_state[:state]
    return np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)


# The fit stops once the gradient 2-norm is at most GRAD_TOL. Tighter
# tolerances hit rounding: one demo fit stalled at a floor of 2.1e-9.
GRAD_TOL = 1e-6
MAX_NEWTON_STEPS = 50
_ARMIJO_SLOPE = 1e-4
_MIN_STEP = 1e-10


def _corrected(matrix, alpha, beta, col) -> np.ndarray:
    """Scores (n, C) corrected by the pairs (s,); ``col`` maps columns to
    groups."""
    out = matrix * alpha[col]
    out += beta[col]
    return out


def _loss(matrix, labels, alpha, beta, col, config: CalibConfig) -> float:
    """``regularized_loss`` with the column-to-group map precomputed. Each
    sample's term is logsumexp(z) - z[label] of its max-shifted corrected
    scores z, exact where the label's probability underflows."""
    shifted = _corrected(matrix, alpha, beta, col)
    shifted -= shifted.max(axis=-1, keepdims=True)
    picked = shifted[np.arange(len(labels)), labels]
    data = np.mean(np.log(np.exp(shifted, out=shifted).sum(axis=-1)) - picked)
    penalty = (config.l2_alpha * np.sum((alpha - 1.0) ** 2)
               + config.l2_beta * np.sum(beta**2))
    return float(data + penalty)


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
    return _loss(matrix, np.asarray(labels), alpha, beta,
                 schedule.column_groups(state) - 1, config)


def _gradient(matrix, labels, q, alpha, beta, starts, config: CalibConfig):
    """``loss_gradient`` given ``q``, the softmax of the corrected scores."""
    residual = q.copy()
    n = len(labels)
    residual[np.arange(n), labels] -= 1.0
    residual /= n
    grad_beta = np.add.reduceat(residual.sum(axis=0), starts)
    residual *= matrix
    grad_alpha = np.add.reduceat(residual.sum(axis=0), starts)
    grad_alpha += 2.0 * config.l2_alpha * (alpha - 1.0)
    grad_beta += 2.0 * config.l2_beta * beta
    return grad_alpha, grad_beta


def _hessian(matrix, q, starts, config: CalibConfig) -> np.ndarray:
    """Hessian of the regularized loss in (alpha, beta), given ``q``.

    J_i^T q_i stacks the group sums of q_i * o_i (alpha) and of q_i (beta);
    J_i^T diag(q_i) J_i is block diagonal over groups.
    """
    n, s = len(q), len(starts)
    weighted = q * matrix
    u = np.concatenate([np.add.reduceat(weighted, starts, axis=1),
                        np.add.reduceat(q, starts, axis=1)], axis=1)
    hess = u.T @ u
    hess /= -n
    sums = u.sum(axis=0) / n
    k = np.arange(s)
    weighted *= matrix
    hess[k, k] += (np.add.reduceat(weighted.sum(axis=0), starts) / n
                   + 2.0 * config.l2_alpha)
    hess[k, k + s] += sums[:s]
    hess[k + s, k] += sums[:s]
    hess[k + s, k + s] += sums[s:] + 2.0 * config.l2_beta
    return hess


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
    q = _softmax_in_place(_corrected(matrix, alpha, beta, schedule.column_groups(state) - 1))
    return _gradient(matrix, np.asarray(labels), q, alpha, beta,
                     _group_starts(schedule, state), config)


@dataclass
class StateFit:
    """Fitted pairs for one state, with the loss at the identity and at the
    fit, the Newton steps taken and the gradient norm at the fit."""

    state: int
    alpha: np.ndarray
    beta: np.ndarray
    initial_loss: float
    final_loss: float
    iterations: int
    grad_norm: float


def fit_state(logits: StateLogits, config: CalibConfig) -> StateFit:
    """Fit the (alpha, beta) pairs of one state on validation logits.

    Damped Newton from the identity pairs: each step solves the 2s x 2s
    Newton system and backtracks until the Armijo condition holds, so the
    loss never rises above its identity value. The fit is certified when
    the gradient norm is at most ``GRAD_TOL``; a fit that is not certified
    within ``MAX_NEWTON_STEPS`` steps, or whose loss, gradient or Hessian
    is non-finite, raises ``NumericError``.
    """
    s, schedule = logits.state, logits.schedule
    if s < 2:
        raise ValueError("state 1 has no pairs to fit")
    matrix, labels = logits.matrix, logits.labels
    col = schedule.column_groups(s) - 1
    missing = (np.flatnonzero(np.bincount(col[labels], minlength=s) == 0) + 1).tolist()
    if missing:
        raise ValueError(f"validation set has no samples for groups {missing}")

    def fail(reason):
        return NumericError(f"dataset {logits.dataset!r}, state {s}: calibration fit {reason}")

    starts = _group_starts(schedule, s)
    params = np.concatenate([np.ones(s), np.zeros(s)])
    # Overflow shows up as non-finite values, which are checked below.
    with np.errstate(all="ignore"):
        loss = initial_loss = _loss(matrix, labels, params[:s], params[s:], col, config)
        for iterations in range(MAX_NEWTON_STEPS + 1):
            q = _softmax_in_place(_corrected(matrix, params[:s], params[s:], col))
            grad = np.concatenate(_gradient(matrix, labels, q, params[:s], params[s:],
                                            starts, config))
            grad_norm = float(np.linalg.norm(grad))
            if not np.isfinite(loss) or not np.isfinite(grad_norm):
                raise fail(f"has a non-finite loss or gradient after {iterations} steps")
            if grad_norm <= GRAD_TOL:
                return StateFit(s, params[:s].copy(), params[s:].copy(), initial_loss,
                                loss, iterations, grad_norm)
            if iterations == MAX_NEWTON_STEPS:
                break
            hess = _hessian(matrix, q, starts, config)
            if not np.all(np.isfinite(hess)):
                raise fail(f"has a non-finite Hessian after {iterations} steps")
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                raise fail(f"has a singular Hessian after {iterations} steps") from None
            slope, t = float(grad @ step), 1.0
            while t >= _MIN_STEP:
                trial = params + t * step
                trial_loss = _loss(matrix, labels, trial[:s], trial[s:], col, config)
                if trial_loss <= loss + _ARMIJO_SLOPE * t * slope:
                    break
                t *= 0.5
            else:
                break
            params, loss = trial, trial_loss
    raise fail(f"not certified: gradient norm {grad_norm:.3g} > {GRAD_TOL:g} "
               f"after {iterations} Newton steps")
