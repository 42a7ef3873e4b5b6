"""Affine score correction and the per-state convex calibration fit.

A ``CalibrationTable`` keeps one (alpha, beta) pair per (current state,
first-seen state), and ``corrected_scores`` maps the columns of group k at
state s to alpha * o + beta with that state's pair k, so the amount of
correction can differ for classes learned at different times. The fit
corrects its trial pairs with it, and ``transfer.score_state`` a table's. The classic single-pair
correction, which rescales only the newest group, is the table that
``collapse_to_single_pair`` leaves: every past pair at the identity.

The fit at state s minimizes, over the s pairs, the mean over validation
samples of logsumexp(z) - z[label] of the corrected scores z, plus
l2_alpha * sum((alpha - 1)^2) + l2_beta * sum(beta^2), a penalty anchored
at the identity pair (alpha=1, beta=0). Corrected scores are linear in the
parameters, so the objective is convex. With q the softmax of z and y the
label, its gradient per group k is the sample mean of sum(q * o) minus
[y in k] * o[y] (alpha_k) and of sum(q) minus [y in k] (beta_k), summing
over k's columns, plus 2 * l2_alpha * (alpha_k - 1) and 2 * l2_beta * beta_k.
Its Hessian is the mean of J^T (diag q - q q^T) J over samples plus the
penalty's diagonal. J^T q holds those group sums, so one pass over q gives
both. The loss is exact (no probability floor): the very convex function
that the gradient and Hessian differentiate.
``fit_state`` solves it with damped Newton steps until the gradient norm is
below ``GRAD_TOL``; a fit that cannot be certified raises ``NumericError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CalibConfig
from .errors import NumericError
from .logits import StateLogits
from .schedule import StateSchedule


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


def corrected_scores(matrix, alpha, beta, col) -> np.ndarray:
    """Scores (n, C) with each column j mapped to alpha[g] * o + beta[g] by
    the pairs (s,) of its group g = ``col[j]``."""
    out = matrix * alpha[col]
    out += beta[col]
    return out


def _group_starts(schedule: StateSchedule, state: int) -> np.ndarray:
    sizes = schedule.classes_per_state[:state]
    return np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)


# The fit stops once the gradient 2-norm is at most GRAD_TOL. Tighter
# tolerances hit rounding: one demo fit stalled at a floor of 2.1e-9.
GRAD_TOL = 1e-6
MAX_NEWTON_STEPS = 50
_ARMIJO_SLOPE = 1e-4
_MIN_STEP = 1e-10


def _loss(matrix, labels, alpha, beta, col, config: CalibConfig):
    """The fit's objective at (alpha, beta): the mean over samples of
    logsumexp(z) - z[label] of the max-shifted corrected scores z, exact
    where the label's probability underflows, plus
    l2_alpha * sum((alpha - 1)^2) + l2_beta * sum(beta^2). ``col`` maps
    columns to groups. Returns the loss, exp(z) and its row sums, whose
    quotient is the softmax of z."""
    shifted = corrected_scores(matrix, alpha, beta, col)
    shifted -= shifted.max(axis=-1, keepdims=True)
    picked = shifted[np.arange(len(labels)), labels]
    sums = np.exp(shifted, out=shifted).sum(axis=-1)
    data = np.mean(np.log(sums) - picked)
    penalty = (config.l2_alpha * np.sum((alpha - 1.0) ** 2)
               + config.l2_beta * np.sum(beta**2))
    return float(data + penalty), shifted, sums


def _newton_system(matrix, labels, q, alpha, beta, col, starts, config: CalibConfig):
    """Gradient and Hessian of ``_loss`` at (alpha, beta), given ``q``, the
    softmax of the corrected scores. Row i of ``u`` stacks J_i^T q_i, the
    group sums of q_i * o_i (alpha) and of q_i (beta); the gradient is its
    mean less the labels' per-group sums of raw score and of one, over n.
    J_i^T diag(q_i) J_i is block diagonal over groups. ``col`` maps columns
    to groups, ``starts`` holds each group's first column."""
    n, s = len(q), len(starts)
    weighted = q * matrix
    u = np.concatenate([np.add.reduceat(weighted, starts, axis=1),
                        np.add.reduceat(q, starts, axis=1)], axis=1)
    sums = u.sum(axis=0) / n
    groups = col[labels]
    grad = sums - np.concatenate([
        np.bincount(groups, matrix[np.arange(n), labels], minlength=s),
        np.bincount(groups, minlength=s)]) / n
    grad[:s] += 2.0 * config.l2_alpha * (alpha - 1.0)
    grad[s:] += 2.0 * config.l2_beta * beta
    hess = u.T @ u
    hess /= -n
    k = np.arange(s)
    weighted *= matrix
    hess[k, k] += (np.add.reduceat(weighted.sum(axis=0), starts) / n
                   + 2.0 * config.l2_alpha)
    hess[k, k + s] += sums[:s]
    hess[k + s, k] += sums[:s]
    hess[k + s, k + s] += sums[s:] + 2.0 * config.l2_beta
    return grad, hess


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
        initial_loss, q, sums = _loss(matrix, labels, params[:s], params[s:], col, config)
        loss = initial_loss
        for iterations in range(MAX_NEWTON_STEPS + 1):
            q /= sums[:, None]  # the softmax at params, from the accepted loss's buffer
            grad, hess = _newton_system(matrix, labels, q, params[:s], params[s:], col,
                                        starts, config)
            grad_norm = float(np.linalg.norm(grad))
            if not np.isfinite(loss) or not np.isfinite(grad_norm):
                raise fail(f"has a non-finite loss or gradient after {iterations} steps")
            if grad_norm <= GRAD_TOL:
                return StateFit(s, params[:s].copy(), params[s:].copy(), initial_loss,
                                loss, iterations, grad_norm)
            if iterations == MAX_NEWTON_STEPS:
                break
            del q  # freed before the line search, which builds its own
            if not np.all(np.isfinite(hess)):
                raise fail(f"has a non-finite Hessian after {iterations} steps")
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                raise fail(f"has a singular Hessian after {iterations} steps") from None
            slope, t = float(grad @ step), 1.0
            while t >= _MIN_STEP:
                trial = params + t * step
                trial_loss, q, sums = _loss(matrix, labels, trial[:s], trial[s:], col, config)
                if trial_loss <= loss + _ARMIJO_SLOPE * t * slope:
                    break
                del q  # one trial's buffer at a time
                t *= 0.5
            else:
                break
            params, loss = trial, trial_loss
    raise fail(f"not certified: gradient norm {grad_norm:.3g} > {GRAD_TOL:g} "
               f"after {iterations} Newton steps")
