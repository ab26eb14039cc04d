"""The benchmark's workloads and the pipeline each one runs.

A run generates the workload's inputs from its seed, then times the
library's public API the way a user calls it: set-up (`cli.load_config`
plus `data.load_corpus` or `data.ingest_taobao`), one `trainer.pretrain`
or `trainer.finetune` call of a fixed number of epochs with its checkpoint
write, and `trainer.score_examples` over the whole corpus. Every stage's
output is checked; a stage that raises or fails its check counts as a
failed operation.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import gen, spans
from seqssl import cli, data, encoders, numcore, pretext, trainer

N_USERS = 20000
# Set-up and scoring are short, so each run repeats them at least this
# often, and until it has measured --seconds in all, and reports medians.
MIN_REPS = 3
# A cold finetune on the planted signal reaches a test AUC of 0.82-0.88 in
# three epochs (seeds 0-7); a broken pipeline scores ~0.5.
MIN_TEST_AUC = 0.65


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str
    inputs: str  # "synthetic" (JSONL corpus) or "userbehavior" (CSV to ingest)
    encoder: dict
    batch_size: int
    epochs: int
    lr: float = 0.01
    tasks: dict = field(default_factory=dict)
    eval_batch_size: int | None = None

    def config_doc(self, data_path: Path, seed: int) -> dict:
        """The workload's run config; patience equals max_epochs, so early
        stopping never shortens the run."""
        doc = {
            "dataset": {"path": str(data_path), "split": [0.7, 0.2, 0.1]},
            "encoder": self.encoder,
            "optimizer": {"lr": self.lr, "weight_decay": 0.01, "clip_norm": 5.0},
            "trainer": {"batch_size": self.batch_size, "max_epochs": self.epochs, "patience": self.epochs},
            "seeds": [seed],
        }
        if self.tasks:
            doc["pretrain-tasks"] = {"tasks": list(self.tasks), "weights": self.tasks}
        if self.eval_batch_size is not None:
            doc["eval"] = {"batch_size": self.eval_batch_size}
        return doc


SYNTH_ENCODER = {"k": gen.SYNTH_K, "embed_dim": 3, "hidden_dim": 8, "max_len": gen.SYNTH_MAX_LEN}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gru-pretrain",
            stage="pretrain",
            inputs="synthetic",
            encoder=dict(SYNTH_ENCODER, kind="gru"),
            tasks={"abacus-r": 0.75, "bt": 0.25},
            batch_size=256,
            epochs=3,
        ),
        Workload(
            name="transformer-msm",
            stage="pretrain",
            inputs="synthetic",
            encoder=dict(SYNTH_ENCODER, kind="transformer"),
            tasks={"msm": 0.5, "abacus-m": 0.5},
            batch_size=256,
            epochs=3,
        ),
        # configs/repro-taobao-finetune.json's encoder, with batch 4096 (16384
        # peaks near the memory of a small box) and lr 0.05: in twelve steps
        # at 0.001 or 0.01 a cold encoder can keep the ranking its random
        # init gives, which on some seeds is inverted (test AUC 0.22 at 0.01).
        Workload(
            name="gru-finetune-taobao",
            stage="finetune",
            inputs="userbehavior",
            encoder={"kind": "gru", "k": 4, "embed_dim": 3, "hidden_dim": 8, "max_len": 100},
            batch_size=4096,
            eval_batch_size=4096,
            epochs=3,
            lr=0.05,
        ),
    )
}


@dataclass
class Inputs:
    config_path: Path
    data_path: Path
    users: int
    untrained_val_loss: float | None = None


def make_inputs(workload: Workload, workdir: Path, seed: int) -> Inputs:
    """Write the workload's seeded data file and config; for pretraining,
    also compute the reference its trained model must beat."""
    if workload.inputs == "synthetic":
        data_path = workdir / "corpus.jsonl"
        users = gen.write_synthetic_corpus(data_path, seed, n_users=N_USERS)
    else:
        data_path = workdir / "UserBehavior.csv"
        gen.write_userbehavior_csv(data_path, seed, n_users=N_USERS)
        users = N_USERS
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(workload.config_doc(data_path, seed), indent=1))
    inputs = Inputs(config_path, data_path, users)
    if workload.stage == "pretrain":
        config, corpus, _ = _setup(workload, inputs)
        inputs.untrained_val_loss = untrained_val_loss(config, corpus, seed)
    return inputs


def untrained_val_loss(config, corpus, seed: int) -> float:
    """The validation loss `trainer.pretrain` reports, for the model it
    starts from: the same initial parameters and heads."""
    rng = np.random.default_rng
    params = encoders.init_params(config.encoder, rng([seed, trainer.ENCODER_INIT_STREAM]))
    heads = pretext.make_task_heads(config.tasks, config.encoder, rng([seed, trainer.HEAD_INIT_STREAM]))
    val = data.time_split(corpus, config.split_fractions).val
    return trainer._pretext_val_loss(config, params, heads, val, seed)


class StageFailed(Exception):
    """A stage raised, or its output failed the check."""


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0

    def run(self, name: str, fn, *args):
        """Run one stage; returns (seconds, result). A stage that raises or
        fails its check is counted and re-raised as StageFailed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed stage is reported, not fatal to the report
            self.failed += 1
            print(f"perfbench: stage {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from exc
        return time.perf_counter() - start, result


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _setup(workload: Workload, inputs: Inputs):
    _, config, data_path = cli.load_config(inputs.config_path, workload.stage)
    if workload.inputs == "synthetic":
        corpus, _ = data.load_corpus(data_path)
        rows = len(corpus)
    else:
        stats = data.IngestStats()
        corpus = data.ingest_taobao(data_path, max_len=config.encoder.max_len, stats=stats)
        _check(stats.rows_rejected == 0, f"{stats.rows_rejected} rows rejected")
        rows = stats.rows_total
    _check(len(corpus) == inputs.users, f"corpus has {len(corpus)} users, expected {inputs.users}")
    return config, corpus, rows


def _train(workload: Workload, config, corpus, seed: int, workdir: Path):
    if workload.stage == "pretrain":
        return trainer.pretrain(config, corpus, seed, checkpoint_out=workdir / "checkpoint.npz")
    report, arrays = trainer.finetune(config, corpus, seed)
    encoders.save_checkpoint(
        workdir / "model.npz", config.encoder.fingerprint(), arrays, meta={"stage": "finetune", "seed": seed}
    )
    return report, arrays


def _check_report(workload: Workload, inputs: Inputs, report) -> None:
    losses = [v for row in report.train_losses for v in row.values()]
    _check(bool(np.isfinite(losses).all()), f"non-finite training loss: {losses}")
    _check(bool(np.isfinite(report.val_metrics).all()), f"non-finite validation metric: {report.val_metrics}")
    _check(len(report.val_metrics) == workload.epochs, f"ran {len(report.val_metrics)} epochs, not {workload.epochs}")
    if workload.stage == "pretrain":
        _check(
            report.val_metrics[-1] < inputs.untrained_val_loss,
            f"final validation loss {report.val_metrics[-1]} is not below the untrained "
            f"model's {inputs.untrained_val_loss}",
        )
    else:
        _check(report.test_auc >= MIN_TEST_AUC, f"test AUC {report.test_auc} below {MIN_TEST_AUC}")


def _scoring_model(workload: Workload, config, arrays: dict, seed: int):
    params = {name: numcore.Param(name, a) for name, a in arrays.items() if not name.startswith("head_")}
    if workload.stage == "finetune":
        head = pretext.head_from_arrays("finetune", arrays)
    else:
        rng = np.random.default_rng([seed, trainer.HEAD_INIT_STREAM])
        head = pretext.make_head("finetune", config.encoder.hidden_dim, 1, rng)
    return params, head


def _score(config, params, head, corpus):
    scores = trainer.score_examples(config, params, head, corpus)
    _check(scores.shape == (len(corpus),), f"{scores.shape[0]} scores for {len(corpus)} examples")
    _check(bool(np.all((scores > 0) & (scores < 1))), "scores outside (0, 1) or non-finite")
    return scores


@dataclass
class Timings:
    setup: list[float] = field(default_factory=list)
    train: float = 0.0
    score: list[float] = field(default_factory=list)
    trained_seqs: int = 0
    scored_seqs: int = 0
    rows_read: int = 0

    def measured(self) -> float:
        return sum(self.setup) + self.train + sum(self.score)


def run_pipeline(workload: Workload, inputs: Inputs, seed: int, workdir: Path, ledger: Ledger,
                 min_reps: int, seconds: float) -> Timings:
    """Set up, train once, then alternate scoring and set-up until each has
    run `min_reps` times and `seconds` have been measured. Alternating
    spreads both kinds of sample over the run, so that a slow spell of a
    shared machine moves their medians less."""
    t = Timings()

    def setup():
        elapsed, result = ledger.run("setup", _setup, workload, inputs)
        t.setup.append(elapsed)
        return result

    def train_and_check():
        report, arrays = _train(workload, config, corpus, seed, workdir)
        _check_report(workload, inputs, report)
        return report, arrays

    def wanted(samples: list) -> bool:
        return len(samples) < min_reps or t.measured() < seconds

    config, corpus, t.rows_read = setup()
    t.train, (report, arrays) = ledger.run("train", train_and_check)
    t.trained_seqs = len(data.time_split(corpus, config.split_fractions).train) * workload.epochs
    t.scored_seqs = len(corpus)
    params, head = _scoring_model(workload, config, arrays, seed)
    while wanted(t.score) or wanted(t.setup):
        elapsed, _ = ledger.run("score", _score, config, params, head, corpus)
        t.score.append(elapsed)
        if wanted(t.setup):
            corpus = None  # a user holds one corpus at a time
            config, corpus, _ = setup()
    return t


def end_to_end(t: Timings) -> dict[str, tuple[float, str]]:
    """Set-up and scoring are medians over their samples; training is the
    one call's wall time."""
    setup_s = statistics.median(t.setup)
    score_s = statistics.median(t.score)
    return {
        "setup_s": (setup_s, "s"),
        "train_seq_per_s": (t.trained_seqs / t.train, "seq/s"),
        "score_seq_per_s": (t.scored_seqs / score_s, "seq/s"),
        "wall_s": (setup_s + t.train + score_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def traced(workload: Workload, inputs: Inputs, seed: int, workdir: Path, ledger: Ledger) -> dict:
    """Untraced, traced and untraced passes of set-up, training and one
    scoring pass. Per-layer metrics come from the traced pass. The tracing
    overhead is its wall time minus the mean of the two untraced passes,
    which run before and after it so that run order does not bias it."""

    def untraced() -> float:
        start = time.perf_counter()
        run_pipeline(workload, inputs, seed, workdir, ledger, 1, 0.0)
        return time.perf_counter() - start

    before = untraced()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        root = tracer.open("bench.workload")
        t = run_pipeline(workload, inputs, seed, workdir, ledger, 1, 0.0)
        tracer.close(root)
    after = untraced()
    ledger.run("trace-check", spans.check_tree, tracer.spans)
    return spans.layer_metrics(tracer, t.rows_read, (before + after) / 2)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Generate the inputs, run the workload and return the result object
    the benchmark prints."""
    workload = WORKLOADS[name]
    inputs = make_inputs(workload, workdir, seed)
    ledger = Ledger()
    try:
        if trace:
            metrics = traced(workload, inputs, seed, workdir, ledger)
        else:
            timings = run_pipeline(workload, inputs, seed, workdir, ledger, MIN_REPS, seconds)
            metrics = end_to_end(timings)
    except StageFailed:
        metrics = {}
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
