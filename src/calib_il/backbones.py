"""Desk-scale incremental backbones: a two-layer relu MLP trained with
SGD+momentum, grown by one output group per state.

Every state is one step, ``update_state``: grow the head by the state's
class group, then train the whole model with SGD. State 1 starts from
nothing and trains from scratch; later states fine-tune the grown model.
Four memoryless update rules share that step and differ only in how they
fight forgetting from state 2 on:

- ``ftplus``    finetune, then put each past group's output rows back
                as they were after the state that introduced it
- ``siw``       the ``ftplus`` restore, then standardize the rows not yet
                standardized (every row at state 2, since state 1 trains
                without the rule; the new group's after it) and clear the
                output biases
- ``lwf``       finetune plus a soft-target distillation term on past
                columns against the previous model
- ``lucir_lite`` cosine-similarity classifier plus feature-direction
                distillation with an adaptive weight

The previous model is a fixed teacher while a state trains, so its targets
(soft targets for ``lwf``, unit feature directions for ``lucir_lite``) are
evaluated once per state on the whole training set, as LwF records the old
network's responses before training; each batch reads its rows.

Training runs on stacks. A stack of R models is a ``Model`` whose weights
carry a leading model axis (``w1`` is (R, h, d), ``eta`` is (R,)) and
whose batches are (R, b, d), one dataset per slice; the models share one
schedule.
``update_state`` takes a stack (None before state 1) and the state's
stacked training set and returns the next stack; ``run_incremental_stack``
runs it through all states in order, reading R per-state draws forward
through ``synth.StackedSets``, each state right before it trains. It is
one flat stream: after each state trains, it yields a ``(set name,
logits)`` pair per evaluation set and model, and scores each model only
when the caller reaches it. One model is a stack of one.

Lockstep is exact: each model of a stack ends with the bits it would have
had if trained alone. Initial weights, the rows each state appends and
every epoch's shuffle all come from ``default_rng([config.seed, state])``,
a stream that depends on the spec seed and the state but not on the
dataset. Models trained one at a time would each draw the same numbers,
so the stack draws them once and shares them. Everything else acts per
slice: a stacked matmul runs the same BLAS call on every slice, and each
reduction runs over the same axis in the same order as for one model.

Updates never mutate their input model; each returns a fresh one. So
by induction the input model's past rows are each group's rows from the
state that introduced it, which the ``ftplus`` and ``siw`` restore puts back;
a ``siw`` row is thus standardized once and kept bitwise after that.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .config import BackboneConfig
from .errors import NumericError, SpecError
from .logits import StateLogits
from .schedule import StateSchedule
from .synth import StackedSets, StateDraw

# Initial scale of the cosine-score multiplier; trained with the rest.
ETA_INIT = 10.0

_NORM_FLOOR = 1e-8


@dataclass
class Model:
    """Two-layer MLP with a growing output head, or a stack of them.

    In a stack every weight array and ``eta`` carry a leading model axis.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    cosine: bool = False
    eta: float | np.ndarray = ETA_INIT

    @property
    def num_classes(self) -> int:
        return self.w2.shape[-2]

    def hidden(self, x: np.ndarray) -> np.ndarray:
        h = x @ _t(self.w1)
        h += self.b1[..., None, :]
        return np.maximum(h, 0.0, out=h)

    def scores(self, x: np.ndarray) -> np.ndarray:
        h = self.hidden(x)
        if self.cosine:
            hn, _, _ = _normalize_rows(h)
            wn, _, _ = _normalize_rows(self.w2)
            out = hn @ _t(wn)
            out *= np.asarray(self.eta)[..., None, None]
            return out
        out = h @ _t(self.w2)
        out += self.b2[..., None, :]
        return out


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (or of one matrix)."""
    return np.swapaxes(x, -1, -2)


def _normalize_rows(x: np.ndarray):
    """Row directions with a norm floor; returns (unit rows, norms, clipped)."""
    raw = np.sqrt(np.sum(x * x, axis=-1))
    clipped = raw <= _NORM_FLOOR
    norms = np.maximum(raw, _NORM_FLOOR)
    return x / norms[..., None], norms, clipped


def _normalize_backward(d_unit, unit, norms, clipped):
    # d/dx (x/||x||) projects out the radial component; where the floor is
    # active the denominator is constant and no projection applies.
    radial = np.sum(d_unit * unit, axis=-1, keepdims=True)
    out = (d_unit - radial * unit) / norms[..., None]
    if np.any(clipped):
        out[clipped] = d_unit[clipped] / norms[clipped][:, None]
    return out


def _log_softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise z - logsumexp(z); ``out=z`` builds it in z's own buffer."""
    shifted = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    shifted -= np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def lucir_lambda(num_past: int, num_new: int, lambda_base: float) -> float:
    """Adaptive distillation weight lambda_base * sqrt(past/new)."""
    if num_past < 1 or num_new < 1:
        raise SpecError("class counts for the adaptive weight must be >= 1")
    return float(lambda_base * np.sqrt(num_past / num_new))


def standardize_rows(w: np.ndarray) -> np.ndarray:
    """Rescale each row to mean 0 / population std 1; constant rows go to
    zero with a warning since they carry no class-specific direction.
    Accepts one matrix or a stack of them."""
    std = w.std(axis=-1, keepdims=True)
    flat = std[..., 0] == 0.0
    out = (w - w.mean(axis=-1, keepdims=True)) / np.where(std == 0.0, 1.0, std)
    out[flat] = 0.0
    if np.any(flat):
        warnings.warn(f"standardizing {int(flat.sum())} constant row(s) to zero")
    return out


# ---------------------------------------------------------------------------
# gradients (stacked: x is (R, b, d), y is (R, b))


def _softmax_residual(z, y):
    """(softmax(z) - onehot(y)) / b for each (b, C) block of a stack."""
    g = np.exp(_log_softmax(z))
    r, b = y.shape
    g[np.arange(r)[:, None], np.arange(b), y] -= 1.0
    g /= b
    return g


def _relu_backward(d_h, active, x, model, config):
    """Push d(loss)/d(hidden) through the relu (in place, ``active`` marks
    positive pre-activations) and the first layer."""
    d_h *= active
    d_w1 = _t(d_h) @ x
    d_w1 += config.weight_decay * model.w1
    return d_w1, d_h.sum(axis=-2)


def _grads_linear(model, x, y, config, p_soft=None):
    """CE gradients of (w1, b1, w2, b2), plus the soft-target distillation
    gradient when the teacher's soft targets ``p_soft`` (R, b, n_past) for
    the batch are given."""
    h = model.hidden(x)
    z = h @ _t(model.w2)
    z += model.b2[:, None, :]
    g = _softmax_residual(z, y)
    if p_soft is not None:
        t = config.distill_temperature
        n_past = p_soft.shape[-1]
        q_soft = np.exp(_log_softmax(z[..., :n_past] / t))
        # d/dz of weight*T^2*mean(KL) collapses to weight*T*(q-p)/B.
        g[..., :n_past] += config.distill_weight * t * (q_soft - p_soft) / y.shape[-1]
    d_w2 = _t(g) @ h
    d_w2 += config.weight_decay * model.w2
    # h > 0 exactly where the pre-activation is positive; drop the
    # activations before the first-layer pass allocates its own.
    active = h > 0
    del h, z
    d_w1, d_b1 = _relu_backward(g @ model.w2, active, x, model, config)
    return d_w1, d_b1, d_w2, g.sum(axis=-2)


def _grads_cosine(model, x, y, config, t_dir=None, lam=0.0):
    """Cosine-head CE gradients of (w1, b1, w2, eta), plus the
    feature-direction distillation gradient weighted by ``lam`` when the
    teacher's unit features ``t_dir`` (R, b, h) for the batch are given."""
    h = model.hidden(x)
    active = h > 0
    hn, h_norms, h_clip = _normalize_rows(h)
    del h
    wn, w_norms, w_clip = _normalize_rows(model.w2)
    cos = hn @ _t(wn)
    eta = model.eta[:, None, None]
    g = _softmax_residual(eta * cos, y)
    # One flat sum per model: the bits of a full sum over one (b, C) block.
    d_eta = np.sum((g * cos).reshape(len(g), -1), axis=1)
    d_wn = eta * (_t(g) @ hn)
    d_hn = eta * (g @ wn)
    if t_dir is not None:
        # d/d(hn) of lam*mean(1 - hn.tn); the projection in the backward
        # pass makes the radial part vanish as it must for a direction loss.
        d_hn = d_hn - (lam / y.shape[-1]) * t_dir
    d_w2 = _normalize_backward(d_wn, wn, w_norms, w_clip) + config.weight_decay * model.w2
    d_w1, d_b1 = _relu_backward(_normalize_backward(d_hn, hn, h_norms, h_clip),
                                active, x, model, config)
    return d_w1, d_b1, d_w2, d_eta


# ---------------------------------------------------------------------------
# training loop


def _teacher_targets(teacher, x, config, lam):
    """The fixed teacher's distillation targets on the stacked training set
    ``x`` (R, n, d): soft targets (R, n, n_past) for a linear head, unit
    feature directions (R, n, h) for a cosine one; None when the update
    has no distillation term."""
    if teacher is None:
        return None
    if teacher.cosine:
        return _normalize_rows(teacher.hidden(x))[0] if lam > 0 else None
    if config.distill_weight <= 0:
        return None
    # exp(log_softmax(scores / T)), built in the scores buffer so that no
    # temporary of its size is held beside it.
    z = teacher.scores(x)
    z /= config.distill_temperature
    return np.exp(_log_softmax(z, out=z), out=z)


def _sgd_epochs(model, x, y, config, epochs, rng, teacher=None, lam=0.0):
    """Mini-batch SGD with momentum on a stack, in place.

    ``x`` is (R, n, d) and ``y`` is (R, n). Each epoch draws one
    permutation and every model of the stack takes its batches in that
    order, exactly as it would alone. The teacher's targets are evaluated
    once, before the first epoch. Each epoch gathers the samples in its
    order once, into buffers reused across epochs, so that a batch is a
    slice.
    """
    # A cosine head reads no output bias; its trained scale takes the slot.
    params = (model.w1, model.b1, model.w2, model.eta if model.cosine else model.b2)
    vel = [np.zeros_like(p) for p in params]
    targets = _teacher_targets(teacher, x, config, lam)
    xs, ys = np.empty_like(x), np.empty_like(y)
    ts = None if targets is None else np.empty_like(targets)
    lr, mu = config.learning_rate, config.momentum
    n = y.shape[1]
    for _ in range(epochs):
        order = rng.permutation(n)
        # A permutation is in range, and "clip" writes straight into the
        # buffer, where the default mode would gather into a temporary.
        np.take(x, order, axis=1, out=xs, mode="clip")
        np.take(y, order, axis=1, out=ys, mode="clip")
        if ts is not None:
            np.take(targets, order, axis=1, out=ts, mode="clip")
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            xb, yb = xs[:, batch], ys[:, batch]
            tb = None if ts is None else ts[:, batch]
            if model.cosine:
                grads = _grads_cosine(model, xb, yb, config, tb, lam)
            else:
                grads = _grads_linear(model, xb, yb, config, tb)
            for p, v, g in zip(params, vel, grads):
                v *= mu
                v += g
                p -= lr * v
    return model


def _init_rows(num_rows, dim, rng):
    return rng.normal(0.0, np.sqrt(2.0 / dim), (num_rows, dim))


def _shared(rows: np.ndarray, num_models: int) -> np.ndarray:
    """One draw of initial rows, copied to every model of a stack."""
    return np.repeat(rows[None], num_models, axis=0)


def update_state(model: Model | None, state: int, train_x: np.ndarray, train_y: np.ndarray,
                 schedule: StateSchedule, config: BackboneConfig) -> Model:
    """Advance a stack by one state with the update rule ``config.kind``
    (see the module docstring) on the state's stacked training set
    ``train_x`` (R, n, d), ``train_y`` (R, n). ``model`` is None before
    state 1, which trains from scratch for ``epochs_initial`` epochs; later
    states fine-tune the grown stack for ``epochs_incremental`` epochs with
    the rule's teacher and restore."""
    kind = config.kind
    sl = schedule.group_slice(state, state)
    past = 0 if model is None else model.num_classes
    if train_y.size == 0:
        raise SpecError(f"state {state} has no training samples")
    if train_y.min() < sl.start or train_y.max() >= sl.stop:
        raise SpecError(f"state {state} training labels must lie in the new group "
                        f"[{sl.start}, {sl.stop})")
    if past != sl.start:
        raise SpecError(f"model covers {past} classes but state {state} introduces "
                        f"ids from {sl.start}; groups would overlap or leave a gap")
    cosine = kind == "lucir_lite"
    if model is not None and model.cosine != cosine:
        head, got = ("cosine", "linear") if cosine else ("linear", "cosine")
        raise SpecError(f"{kind} updates need a {head}-head model, not a {got}-head one")
    rng = np.random.default_rng([config.seed, state])
    r, _, d = train_x.shape
    h = config.hidden_dim
    if model is None:  # an empty head on a freshly drawn first layer
        model = Model(w1=_shared(_init_rows(h, d, rng), r), b1=np.zeros((r, h)),
                      w2=np.zeros((r, 0, h)), b2=np.zeros((r, 0)), cosine=cosine,
                      eta=np.full(r, ETA_INIT))
    n_new = sl.stop - sl.start
    # Every array is copied, so that training never mutates the input stack.
    grown = Model(w1=model.w1.copy(), b1=model.b1.copy(),
                  w2=np.concatenate([model.w2, _shared(_init_rows(n_new, h, rng), r)], axis=1),
                  b2=np.concatenate([model.b2, np.zeros((r, n_new))], axis=1),
                  cosine=cosine, eta=model.eta.copy())
    if past == 0:  # state 1 trains from scratch, with no rule to apply
        return _sgd_epochs(grown, train_x, train_y, config, config.epochs_initial, rng)
    teacher = model if kind in ("lwf", "lucir_lite") else None
    lam = lucir_lambda(past, n_new, config.lucir_lambda_base) if cosine else 0.0
    _sgd_epochs(grown, train_x, train_y, config, config.epochs_incremental, rng,
                teacher=teacher, lam=lam)
    if kind in ("ftplus", "siw"):
        grown.w2[:, :past] = model.w2
        grown.b2[:, :past] = model.b2
    if kind == "siw":
        first = 0 if state == 2 else past
        grown.w2[:, first:] = standardize_rows(grown.w2[:, first:])
        grown.b2 = np.zeros_like(grown.b2)
    return grown


def run_incremental_stack(config: BackboneConfig, draws: Iterable[StateDraw],
                          sets: tuple[str, ...] = ("validation", "test")):
    """Train one model per per-state draw (``synth.draw_states``) through
    all states, all in one lockstep.

    Each state's block is pulled from every draw right before the state
    trains, and only the sets the run reads are kept (``StackedSets``).
    The draws must share one schedule and have equal per-state sample
    counts, as the draws of one spec do.

    A generator of ``(set_name, logits)`` pairs: right after each state is
    trained it walks ``sets`` ("validation", "test") and, within each set,
    the models in order. Each model is scored from its slices of the stack
    only when the caller asks for it, so the hidden activations and scores
    held are those of one model. A model with a non-finite score has
    diverged: ``NumericError``. The next state trains only when the caller
    asks past the last model.
    """
    draws = list(draws)
    data = StackedSets(draws, sets)
    model = None
    for state in range(1, data.schedule.num_states + 1):
        # Only the call holds the state's training set: it is freed once trained.
        model = update_state(model, state, *data.next_state(), data.schedule, config)
        for name in sets:
            x, labels = data.evaluation(name)
            for r, draw in enumerate(draws):
                scores = Model(model.w1[r], model.b1[r], model.w2[r], model.b2[r],
                               model.cosine, model.eta[r]).scores(x[r])
                if not np.all(np.isfinite(scores)):
                    raise NumericError(f"dataset {draw.name!r}, state {state}: {config.kind} "
                                       "training diverged to non-finite scores")
                yield name, StateLogits(state=state, matrix=scores, labels=labels[r],
                                        schedule=data.schedule, dataset=draw.name,
                                        backbone=config.kind, seed=draw.seed)
                del scores  # the caller's to drop before it asks for the next model
