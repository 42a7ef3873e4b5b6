"""Reference implementations that tests check the package against.

Each oracle is written from its formula in plain numpy. None calls code
of ``calib_il.calibration``, ``calib_il.backbones`` or
``transfer.score_state``: an oracle that shared a helper with the code it
checks would share that code's mistakes. Models, logits and tables are
read through their public attributes only (``scores``, ``hidden``,
``matrix``, ``labels``, ``schedule``, ``state``, ``alpha``, ``beta``); a
table is built through the ``CalibrationTable`` constructor only, and a
run's rows are gathered by ``RunMetrics.from_rows``. The dataset reader
parses with ``csv``, ``float`` and ``json`` alone, and nothing of
``calib_il.storage``.
"""

import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from calib_il.calibration import CalibrationTable
from calib_il.transfer import RunMetrics


def softmax(scores) -> np.ndarray:
    """Row-wise exp(z) / sum(exp(z)), shifted by each row's max so that
    large scores do not overflow."""
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z) -> np.ndarray:
    """Row-wise z - logsumexp(z)."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def group_columns(schedule, state) -> list[slice]:
    """The column slice of each group 1..state at ``state``."""
    return [schedule.group_slice(state, k) for k in range(1, state + 1)]


def corrected(matrix, alpha, beta, schedule, state) -> np.ndarray:
    """Scores with group k's columns mapped to alpha[k-1] * o + beta[k-1]."""
    out = np.array(matrix, dtype=np.float64)
    for cols, a, b in zip(group_columns(schedule, state), alpha, beta, strict=True):
        out[:, cols] = a * out[:, cols] + b
    return out


def apply_table(logits, table) -> np.ndarray:
    """The logits' scores at state s >= 2 with group k's columns mapped to
    alpha * o + beta by the table's pair (s, k)."""
    s = logits.state
    assert s >= 2, "state 1 has no pairs"
    return corrected(logits.matrix, table.alpha[s - 2, :s], table.beta[s - 2, :s],
                     logits.schedule, s)


def predict(scores) -> np.ndarray:
    """Top-1 class of each row: the lowest class id among the row's
    largest scores."""
    return np.array([min(j for j, v in enumerate(row) if v == max(row))
                     for row in np.asarray(scores).tolist()], dtype=np.int64)


def per_state_accuracy(predictions, labels, schedule, state) -> tuple[float, np.ndarray]:
    """Fraction of ``predictions`` equal to ``labels``, and the same
    fraction over the samples of each group k = 1..state: those whose true
    class was first learned in state k. A group without samples is nan."""
    hits = np.asarray(predictions) == np.asarray(labels)
    groups = np.array([schedule.class_to_state[y] for y in labels])
    return float(np.mean(hits)), np.array(
        [np.mean(hits[groups == k]) if np.any(groups == k) else np.nan
         for k in range(1, state + 1)])


def identity_table(num_states) -> CalibrationTable:
    """The table that changes no score: the pair (1, 0) for every group of
    every state 2..num_states."""
    shape = (num_states - 1, num_states)
    return CalibrationTable(np.ones(shape), np.zeros(shape))


def apply_bic(logits, alpha: float, beta: float) -> np.ndarray:
    """BiC's single-pair correction: the newest group's columns become
    alpha * o + beta, and every earlier column stays raw."""
    out = np.array(logits.matrix, dtype=np.float64)
    new = logits.schedule.group_slice(logits.state, logits.state)
    out[:, new] = alpha * out[:, new] + beta
    return out


def regularized_loss(matrix, labels, alpha, beta, schedule, state, config) -> float:
    """The calibration objective: the mean over samples of
    logsumexp(z) - z[label] of the corrected scores z, plus
    l2_alpha * sum((alpha - 1)^2) + l2_beta * sum(beta^2)."""
    logp = log_softmax(corrected(matrix, alpha, beta, schedule, state))
    data = -np.mean(logp[np.arange(len(labels)), labels])
    return float(data + config.l2_alpha * np.sum((alpha - 1.0) ** 2)
                 + config.l2_beta * np.sum(beta**2))


def loss_gradient(matrix, labels, alpha, beta, schedule, state, config):
    """Gradient of ``regularized_loss`` as (d/d alpha, d/d beta). Per group
    k, the sum over samples and over k's columns of
    (softmax(z) - onehot(label)) / n, weighted by the raw score for alpha_k
    and by 1 for beta_k, plus the penalty's 2 * l2_alpha * (alpha_k - 1)
    and 2 * l2_beta * beta_k."""
    n = len(labels)
    residual = softmax(corrected(matrix, alpha, beta, schedule, state))
    residual[np.arange(n), labels] -= 1.0
    residual /= n
    cols = group_columns(schedule, state)
    grad_alpha = np.array([np.sum(residual[:, c] * matrix[:, c]) for c in cols])
    grad_beta = np.array([np.sum(residual[:, c]) for c in cols])
    return (grad_alpha + 2.0 * config.l2_alpha * (alpha - 1.0),
            grad_beta + 2.0 * config.l2_beta * beta)


def loss_hessian(matrix, alpha, beta, schedule, state, config) -> np.ndarray:
    """Hessian of ``regularized_loss`` in (alpha, beta): the mean over
    samples i of J_i^T (diag q_i - q_i q_i^T) J_i, where q_i is the softmax
    of the corrected scores and J_i their (C, 2s) Jacobian (column k holds
    the raw scores o_i on group k's columns, column s+k holds 1 there),
    plus 2 * l2_alpha on the alpha diagonal and 2 * l2_beta on the beta one."""
    q = softmax(corrected(matrix, alpha, beta, schedule, state))
    cols = group_columns(schedule, state)
    s = len(cols)
    hess = np.zeros((2 * s, 2 * s))
    for o, p in zip(matrix, q):
        jac = np.zeros((len(o), 2 * s))
        for k, c in enumerate(cols):
            jac[c, k] = o[c]
            jac[c, s + k] = 1.0
        hess += jac.T @ (np.diag(p) - np.outer(p, p)) @ jac
    hess /= len(matrix)
    hess[np.diag_indices(2 * s)] += np.repeat([2.0 * config.l2_alpha, 2.0 * config.l2_beta], s)
    return hess


def mean_loss(model, x, y) -> float:
    """Mean cross-entropy of ``model``'s scores on (x, y)."""
    logp = log_softmax(model.scores(x))
    return float(-np.mean(logp[np.arange(len(y)), y]))


def distillation_loss(model, teacher, x, temperature, weight) -> float:
    """LwF's soft-target term: weight * T^2 times the mean over samples of
    KL(p || q), where p is the teacher's softmax at temperature T and q the
    student's over the teacher's columns."""
    teacher_scores = teacher.scores(x)
    logp = log_softmax(teacher_scores / temperature)
    logq = log_softmax(model.scores(x)[:, :teacher_scores.shape[-1]] / temperature)
    kl = np.sum(np.exp(logp) * (logp - logq), axis=-1)
    return float(weight * temperature**2 * np.mean(kl))


def feature_distillation_loss(model, teacher, x, weight) -> float:
    """LUCIR's feature term: weight * mean(1 - cos(h, t)) over samples,
    with h and t the student's and the teacher's (nonzero) hidden features."""
    h, t = model.hidden(x), teacher.hidden(x)
    cos = np.sum(h * t, axis=-1) / (np.linalg.norm(h, axis=-1) * np.linalg.norm(t, axis=-1))
    return float(weight * np.mean(1.0 - cos))


def mean_scores_by_group(logits) -> dict[int, tuple[float, float]]:
    """Mean and population std of the score entries in each group's
    columns, keyed by group 1..state."""
    return {k: (float(np.mean(logits.matrix[:, c])), float(np.std(logits.matrix[:, c])))
            for k, c in enumerate(group_columns(logits.schedule, logits.state), start=1)}


def run_metrics(per_state_scores, per_state_labels, schedule) -> RunMetrics:
    """A run's metrics from its per-state score matrices and labels, for
    states 1..S: each state's ``per_state_accuracy`` row of its top-1
    predictions, gathered by ``RunMetrics.from_rows``."""
    return RunMetrics.from_rows([
        per_state_accuracy(predict(scores), labels, schedule, s)
        for s, (scores, labels) in enumerate(zip(per_state_scores, per_state_labels,
                                                 strict=True), start=1)])


def read_dataset(path) -> SimpleNamespace:
    """The dataset CSV ``path`` that ``gen`` writes, `x0..x<d-1>,label,split`,
    as ``features`` (n, d) floats, ``labels`` (n,) ints and ``split`` (n,)
    tag objects, with its sidecar JSON as ``meta``."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [f"x{j}" for j in range(len(header) - 2)] + ["label", "split"], header
    return SimpleNamespace(
        features=np.array([[float(cell) for cell in row[:-2]] for row in rows]),
        labels=np.array([int(row[-2]) for row in rows]),
        split=np.array([row[-1] for row in rows], dtype=object),
        meta=json.loads(Path(f"{path}.meta.json").read_text(encoding="utf-8")))
