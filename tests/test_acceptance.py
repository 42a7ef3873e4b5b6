"""Acceptance gate: twelve checks with pinned tolerances and time bounds.

Run with ``pytest tests/test_acceptance.py -v`` — each check is one test,
so the verbose listing gives one pass/fail line per criterion. Every test
also prints a summary line with the measured numbers.

Criteria 6, 7, 8 and 10 share one end-to-end harness run (20 classes,
d=32, S=5, FT+ backbone, 10 references, 10 targets) built once in a
module fixture; its wall-clock time is bounded by criterion 6.
"""

import dataclasses
import json
import time
from functools import partial

import numpy as np
import pytest

from calib_il import flows
from calib_il.backbones import BackboneConfig, lucir_lambda, update_state
from calib_il.calibration import CalibConfig, CalibrationTable, fit_state
from calib_il.errors import MetadataError, SchemaError
from calib_il.logits import StateLogits
from calib_il.flows import (_sampling_indices, cmd_gen, cmd_run_reference, cmd_run_target,
                            cmd_sweep)
from calib_il.pipeline import parse_run_spec, target_seeds
from calib_il.plots import cmd_plot
from calib_il.schedule import StateSchedule
from calib_il.storage import (read_logits, read_metrics_rows, read_table,
                              write_dataset, write_logits, write_metrics,
                              write_table)
from calib_il.synth import StackedSets, SynthSpec, draw_states
from calib_il.transfer import RunMetrics, average_tables, score_state
from oracles import (apply_bic, apply_table, distillation_loss, feature_distillation_loss,
                     identity_table, mean_scores_by_group, read_dataset, regularized_loss,
                     run_metrics)
from test_backbones import one
from test_calibration import correct, fit_gradient, fit_loss
from test_storage import expect_of
from test_synth import joined, subset

HARNESS = {
    "seed": 7,
    "name": "acceptance-harness",
    "data": {"num_classes": 20, "feature_dim": 32,
             "num_references": 10, "num_targets": 10,
             "center_scale": 1.0, "noise_scale": 1.0},
    "schedule": {"num_states": 5},
    "backbone": {"kind": "ftplus", "learning_rate": 0.03},
}

SMALL_SPEC = {
    "seed": 3,
    "data": {"num_classes": 4, "feature_dim": 6, "train_per_class": 8,
             "val_per_class": 4, "test_per_class": 4,
             "num_references": 2, "num_targets": 2},
    "schedule": {"num_states": 2},
    "backbone": {"kind": "ftplus", "hidden_dim": 16, "epochs_initial": 8,
                 "epochs_incremental": 4},
    "sweep": {"r_values": [1, 2], "num_samplings": 3},
}


def report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


def score_run(run, tables):
    """A whole run's metrics, each state scored by ``score_state``: one
    table transfers it, ``[None]`` scores it raw, several pick per state."""
    return RunMetrics.from_rows([score_state(lg, tables) for lg in run])


def random_run(seed, num_states, per_state=2, n=200):
    sched = StateSchedule((per_state,) * num_states)
    rng = np.random.default_rng(seed)
    out = []
    for s in range(1, num_states + 1):
        cols = sched.classes_through(s)
        out.append(StateLogits(s, rng.normal(0, 2, (n, cols)),
                               rng.integers(0, cols, n), sched))
    return out


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    """The criterion-6 run: references, targets, per-target method metrics.
    The pipeline streams each state's logits to disk as it scores them;
    the criteria read the targets' logits back from there."""
    spec = parse_run_spec(dict(HARNESS))
    out = tmp_path_factory.mktemp("harness")
    start = time.perf_counter()
    tables = [CalibrationTable.from_fits(fits[1:]) for fits in flows._stacks(
        spec, "reference", partial(flows._fit, spec.calibration), out)]
    averaged = average_tables(tables)
    methods = {"raw": [None], "bic": [averaged.collapse_to_single_pair()],
               "adbic": [averaged], "oracle": tables}
    results = [{method: RunMetrics.from_rows([row[method] for row in rows])
                for method in methods}
               for rows in flows._stacks(spec, "target", partial(flows._score, methods), out)]
    elapsed = time.perf_counter() - start
    targets = [[read_logits(out / "logits" / f"target_{j}_state_{s}.csv",
                            (f"target_{j}", seed, s, spec.schedule,
                             spec.synth.test_per_class * spec.schedule.classes_through(s)))
                for s in range(1, spec.schedule.num_states + 1)]
               for j, seed in enumerate(target_seeds(spec))]
    return {"spec": spec, "tables": tables, "targets": targets,
            "results": results, "elapsed": elapsed}


def test_criterion_01_identity_invariance():
    start = time.perf_counter()
    ok = True
    for S in (2, 5, 10):
        run = random_run(S, S)
        identity = identity_table(S)
        for lg in run[1:]:
            ok &= correct(lg, identity).tobytes() == lg.matrix.tobytes()
        raw = score_run(run, [None])
        ident = score_run(run, [identity])
        ok &= np.array_equal(raw.per_state_accuracy, ident.per_state_accuracy,
                             equal_nan=True)
        ok &= np.array_equal(raw.group_accuracy, ident.group_accuracy, equal_nan=True)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, f"identity table bit-identical to raw for S in (2, 5, 10); "
                  f"{elapsed:.2f}s (< 1s)")


def test_criterion_02_gradient_matches_finite_differences():
    start = time.perf_counter()
    config = CalibConfig()
    rng = np.random.default_rng(42)
    h, worst = 1e-5, 0.0
    for _ in range(20):
        S = int(rng.integers(2, 6))
        sched = StateSchedule(tuple(int(v) for v in rng.integers(1, 4, S)))
        cols = sched.classes_through(S)
        n = int(rng.integers(5, 40))
        matrix = rng.normal(0, 3, (n, cols))
        labels = rng.integers(0, cols, n)
        alpha = rng.normal(1, 0.5, S)
        beta = rng.normal(0, 0.5, S)
        ga, gb = fit_gradient(matrix, labels, alpha, beta, sched, S, config)
        for i in range(S):
            for grad, vec, is_alpha in ((ga, alpha, True), (gb, beta, False)):
                vp, vm = vec.copy(), vec.copy()
                vp[i] += h
                vm[i] -= h
                if is_alpha:
                    lp = fit_loss(matrix, labels, vp, beta, sched, S, config)[0]
                    lm = fit_loss(matrix, labels, vm, beta, sched, S, config)[0]
                else:
                    lp = fit_loss(matrix, labels, alpha, vp, sched, S, config)[0]
                    lm = fit_loss(matrix, labels, alpha, vm, sched, S, config)[0]
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-8))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 2.0
    report(2, ok, f"worst relative error {worst:.2e} over 20 instances "
                  f"(< 1e-4); {elapsed:.2f}s (< 2s)")


def grid_pair(loss_at, a0, b0):
    """Two-stage grid over one pair: coarse scan of [0,3]x[-2,2], then a
    fine scan around the best coarse cell."""
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


def test_criterion_03_fit_matches_grid_search():
    """S=2 has two pairs; the convex objective lets the two-stage grid
    cycle exactly over one pair at a time and still reach the optimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    sched = StateSchedule((2, 2))
    n = 1500
    z = rng.normal(0.0, 2.0, (n, 4))
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(4, p=row) for row in p])
    z[:, 2:] *= 1.8
    logits = StateLogits(2, z, labels, sched)
    config = CalibConfig()
    fit = fit_state(logits, config)

    a1, b1, a2, b2 = 1.0, 0.0, 1.0, 0.0
    best = np.inf
    for _ in range(2):
        best, a2, b2 = grid_pair(
            lambda a, b: regularized_loss(z, labels, np.array([a1, a]),
                                          np.array([b1, b]), sched, 2, config),
            a2, b2)
        best, a1, b1 = grid_pair(
            lambda a, b: regularized_loss(z, labels, np.array([a, a2]),
                                          np.array([b, b2]), sched, 2, config),
            a1, b1)
    diff = abs(fit.final_loss - best)
    elapsed = time.perf_counter() - start
    ok = diff < 1e-4 and elapsed < 5.0
    report(3, ok, f"|fit loss - grid loss| = {diff:.2e} (< 1e-4); "
                  f"{elapsed:.2f}s (< 5s)")


def test_criterion_04_param_count(tmp_path):
    """The scalars a written table stores: one alpha and one beta per
    (state, group) entry of its JSON file."""
    got = []
    for S in (5, 10, 20):
        path = tmp_path / f"s{S}.table.json"
        write_table(path, identity_table(S))
        entries = json.loads(path.read_text())["entries"]
        got.append(sum(len({"alpha", "beta"} & entry.keys()) for entry in entries))
    got = tuple(got)
    ok = got == tuple((S + 2) * (S - 1) for S in (5, 10, 20)) == (28, 108, 418)
    report(4, ok, f"table JSON scalars for S = 5/10/20: {got} "
                  f"(want (S+2)(S-1) = (28, 108, 418))")


def test_criterion_05_reduction_to_single_pair():
    worst = 0.0
    rng = np.random.default_rng(9)
    for S in (2, 4, 6):
        sizes = tuple(int(v) for v in rng.integers(1, 4, S))
        sched = StateSchedule(sizes)
        cols = sched.classes_through(S)
        logits = StateLogits(S, rng.normal(0, 3, (30, cols)),
                             rng.integers(0, cols, 30), sched)
        alpha, beta = 1.9, -0.7
        entries = {(s, k): (1.0, 0.0)
                   for s in range(2, S + 1) for k in range(1, s + 1)}
        entries[(S, S)] = (alpha, beta)
        diff = np.abs(correct(logits, CalibrationTable.from_pairs(S, entries.items()))
                      - apply_bic(logits, alpha, beta)).max()
        worst = max(worst, float(diff))
    ok = worst <= 1e-12
    report(5, ok, f"max |adBiC - BiC| with identity past pairs = {worst:.2e} "
                  f"(<= 1e-12)")


def test_criterion_06_end_to_end_transfer_gain(harness):
    gains = [res["adbic"].average_incremental_accuracy
             - res["raw"].average_incremental_accuracy
             for res in harness["results"]]
    wins = sum(g > 0 for g in gains)
    mean_gain = float(np.mean(gains))
    elapsed = harness["elapsed"]
    ok = wins >= 8 and mean_gain > 0 and elapsed < 60.0
    report(6, ok, f"corrected beats raw on {wins}/10 targets, mean gain "
                  f"{mean_gain:+.4f}; harness took {elapsed:.1f}s (< 60s)")


def test_criterion_07_oracle_dominance(harness):
    violations = 0
    for logits in harness["targets"]:
        oracle = score_run(logits, harness["tables"])
        for table in harness["tables"]:
            single = score_run(logits, [table])
            for s in range(2, 6):
                if oracle.per_state_accuracy[s - 1] < single.per_state_accuracy[s - 1]:
                    violations += 1
    ok = violations == 0
    report(7, ok, f"oracle >= every single table per state on all 10 targets "
                  f"({violations} violations)")


def test_criterion_08_recency_bias_and_spread(harness):
    averaged = average_tables(harness["tables"])
    newest_wins = 0
    spread_drops = 0
    for logits in harness["targets"]:
        final = logits[-1]
        raw_means = {k: m for k, (m, _) in mean_scores_by_group(final).items()}
        if all(raw_means[5] > raw_means[k] for k in range(1, 5)):
            newest_wins += 1
        corrected = StateLogits(5, apply_table(final, averaged), final.labels,
                                final.schedule)
        cor_means = {k: m for k, (m, _) in mean_scores_by_group(corrected).items()}
        raw_spread = max(raw_means.values()) - min(raw_means.values())
        cor_spread = max(cor_means.values()) - min(cor_means.values())
        if cor_spread < raw_spread:
            spread_drops += 1
    ok = newest_wins >= 9 and spread_drops >= 8
    report(8, ok, f"newest group has the top mean score in {newest_wins}/10 "
                  f"(>= 9); correction shrinks the group-mean spread in "
                  f"{spread_drops}/10 (>= 8)")


def test_criterion_09_backbone_contracts():
    spec = SynthSpec(num_classes=6, feature_dim=8, train_per_class=15,
                     val_per_class=5, test_per_class=5, seed=11)
    data = joined(draw_states(spec, StateSchedule.equal_split(6, 3)))
    config = BackboneConfig(kind="ftplus", epochs_initial=20,
                            epochs_incremental=10)
    sets = StackedSets([draw_states(spec, data.schedule)], ())
    train1, train2 = sets.next_state(), sets.next_state()
    m1 = update_state(None, 1, *train1, data.schedule, config)
    m2 = update_state(m1, 2, *train2, data.schedule, config)
    restored_ok = (m2.w2[:, :2].tobytes() == m1.w2.tobytes()
                   and m2.b2[:, :2].tobytes() == m1.b2.tobytes())

    siw = update_state(m1, 2, *train2, data.schedule, dataclasses.replace(config, kind="siw"))
    mean_err = float(np.abs(siw.w2.mean(axis=-1)).max())
    std_err = float(np.abs(siw.w2.std(axis=-1) - 1.0).max())
    siw_ok = mean_err < 1e-9 and std_err < 1e-9

    x, _ = subset(data, "validation", np.arange(2))
    m1 = one(m1)
    lwf_term = abs(distillation_loss(m1, m1, x, 2.0, 1.0))
    lucir_term = abs(feature_distillation_loss(m1, m1, x, 5.0))
    distill_ok = lwf_term < 1e-12 and lucir_term < 1e-12

    lam = lucir_lambda(16, 4, 5.0)
    ok = restored_ok and siw_ok and distill_ok and lam == 10.0
    report(9, ok, f"ftplus past rows restored bitwise: {restored_ok}; SIW |mean| {mean_err:.1e} "
                  f"/ |std-1| {std_err:.1e} (< 1e-9); distill terms at teacher "
                  f"{lwf_term:.1e} / {lucir_term:.1e} (< 1e-12); lambda(16,4,5) "
                  f"= {lam}")


def test_criterion_10_reference_count_ablation(harness):
    spec = harness["spec"]
    raw_mean = float(np.mean([res["raw"].average_incremental_accuracy
                              for res in harness["results"]]))

    def corrected_mean(subset):
        averaged = average_tables([harness["tables"][i] for i in subset])
        accs = [score_run(logits, [averaged]).average_incremental_accuracy
                for logits in harness["targets"]]
        return float(np.mean(accs))

    gains = {}
    for r in (1, 3, 5, 9):
        samples = [corrected_mean(sub) for sub in _sampling_indices(spec, r)]
        gains[r] = float(np.mean(samples)) - raw_mean
    full_samples = [corrected_mean(sub) for sub in _sampling_indices(spec, 10)]
    full_std = float(np.std(full_samples))
    ok = all(g > 0 for g in gains.values()) and full_std == 0.0
    pretty = ", ".join(f"R={r}: {g:+.4f}" for r, g in gains.items())
    report(10, ok, f"gains {pretty} (all > 0); R=10 sampling std = {full_std} "
                   f"(== 0.0)")


def test_criterion_11_serialization(tmp_path):
    start = time.perf_counter()
    sched = StateSchedule((2, 2))
    logits = StateLogits(2, np.array([[0.1, -0.2, 1e-17, 3.5],
                                      [1 / 3, 2 / 3, -1.0, 7.0]]),
                         np.array([0, 3]), sched, dataset="d", backbone="b",
                         seed=4)
    write_logits(tmp_path / "lg.csv", logits)
    logits_ok = read_logits(tmp_path / "lg.csv", expect_of(logits)).matrix.tobytes() \
        == logits.matrix.tobytes()

    rng = np.random.default_rng(0)
    table = CalibrationTable.from_pairs(3, {(s, k): (float(rng.normal(1, 0.3)),
                                                     float(rng.normal(0, 0.3)))
                                            for s in (2, 3) for k in range(1, s + 1)}.items())
    write_table(tmp_path / "t.table.json", table)
    table_ok = read_table(tmp_path / "t.table.json", 3) == table

    spec = SynthSpec(num_classes=4, feature_dim=3, train_per_class=6, val_per_class=2,
                     test_per_class=2, seed=8)
    data = joined(draw_states(spec, StateSchedule((2, 2)), name="d0"))
    write_dataset(tmp_path / "d.csv", draw_states(spec, data.schedule, name="d0"))
    back = read_dataset(tmp_path / "d.csv")
    dataset_ok = (back.features.tobytes() == data.features.tobytes()
                  and np.array_equal(back.labels, data.labels)
                  and np.array_equal(back.split, data.split))

    run = random_run(5, 2, n=40)
    metrics = run_metrics([lg.matrix for lg in run], [lg.labels for lg in run],
                          run[0].schedule)
    write_metrics(tmp_path / "m.csv", metrics)
    triangle = read_metrics_rows(tmp_path / "m.csv", 2)
    summary = (tmp_path / "m.csv").read_text().splitlines()[-1]
    metrics_ok = ([len(row) for row in triangle] == [1, 2]
                  and np.array_equal(sum(triangle, []),
                                     metrics.group_accuracy[np.tril_indices(2)], equal_nan=True)
                  and summary == f"0,0,{metrics.average_incremental_accuracy!r}")

    lines = (tmp_path / "lg.csv").read_text().splitlines()
    lines[1] = lines[1].replace("0.1", "oops")
    (tmp_path / "lg.csv").write_text("\n".join(lines) + "\n")
    try:
        read_logits(tmp_path / "lg.csv", expect_of(logits))
        located_ok = False
    except SchemaError as exc:
        located_ok = "row 2" in str(exc) and exc.path.endswith("lg.csv")
    payload = (tmp_path / "t.table.json").read_text().replace('"k": 2', '"k": 9')
    (tmp_path / "t.table.json").write_text(payload)
    try:
        read_table(tmp_path / "t.table.json", 3)
        located_ok = False
    except MetadataError as exc:
        located_ok &= exc.path.endswith("t.table.json")

    elapsed = time.perf_counter() - start
    ok = (logits_ok and table_ok and dataset_ok and metrics_ok and located_ok
          and elapsed < 1.0)
    report(11, ok, f"round-trips value-identical (logits {logits_ok}, table "
                   f"{table_ok}, dataset {dataset_ok}, metrics {metrics_ok}); "
                   f"corrupted files located: {located_ok}; {elapsed:.2f}s (< 1s)")


def test_criterion_12_byte_identical_reruns(tmp_path):
    spec = parse_run_spec(dict(SMALL_SPEC))
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        cmd_gen(spec, out)
        cmd_run_reference(spec, out)
        cmd_run_target(spec, out)
        cmd_sweep(spec, out)
        cmd_plot(spec, out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                   if p.is_file())
    mismatched = [str(rel) for rel in files
                  if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()]
    ok = not mismatched and len(files) > 20
    report(12, ok, f"two full subcommand chains produced {len(files)} files "
                   f"each, all byte-identical (mismatches: {mismatched or 'none'})")
