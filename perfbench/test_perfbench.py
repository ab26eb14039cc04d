"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import gen, spans, workloads
from seqssl import data, trainer
from seqssl.encoders import EncoderConfig

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=spans.NO_PARENT):
    return spans.Span(name, start, end, parent, spans.NO_STEP)


class TestSelfTimes:
    def test_hand_built_tree(self):
        tree = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("a.child", 2.0, 3.0, parent=1),
            _span("b", 5.0, 9.0, parent=0),
            _span("b.child", 5.5, 6.0, parent=3),
            _span("b.child", 7.0, 8.0, parent=3),
        ]
        assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
        assert sum(spans.self_times(tree)) == pytest.approx(10.0)
        spans.check_tree(tree)

    def test_overlapping_children_are_merged_and_clipped(self):
        tree = [
            _span("root", 0.0, 10.0),
            _span("x", 1.0, 4.0, parent=0),
            _span("y", 3.0, 6.0, parent=0),
            _span("z", 8.0, 12.0, parent=0),
        ]
        assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)

    def test_span_outside_the_root_is_rejected(self):
        tree = [_span("root", 0.0, 1.0), _span("stray", 2.0, 3.0)]
        with pytest.raises(AssertionError, match="outside the root"):
            spans.check_tree(tree)

    def test_tracer_nests_spans_on_a_fake_clock(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        root = tracer.open("root")
        with tracer.span("a"):
            tracer.wrap(lambda: None, "a.inner")()
        tracer.close(root)
        assert [s.parent for s in tracer.spans] == [spans.NO_PARENT, 0, 1]
        assert spans.self_times(tracer.spans) == [2.0, 2.0, 1.0]


class TestInstrumentedPipeline:
    def test_small_pretrain_under_the_tracer(self):
        corpus = data.gen_synthetic(seed=3, n_users=300, k=6, max_len=12)
        enc = EncoderConfig(kind="gru", k=6, max_len=12)
        config = trainer.RunConfig(
            stage="pretrain", encoder=enc, tasks=["abacus-r", "bt"],
            weights={"abacus-r": 0.75, "bt": 0.25}, batch_size=64, max_epochs=2, patience=2,
        )
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            with tracer.span("bench.workload"):
                trainer.pretrain(config, corpus, seed=0)
        assert trainer.pretrain.__name__ == "pretrain"  # patches are undone
        spans.check_tree(tracer.spans)
        metrics = spans.layer_metrics(tracer, rows_read=0, untraced_s=0.0)
        steps = 2 * -(-210 // 64)  # two epochs over a 210-example train split
        assert metrics["trainer.steps"][0] == steps
        assert metrics["numcore.backward_calls"][0] == steps
        assert metrics["numcore.adamw_calls"][0] == steps
        assert metrics["numcore.tape_nodes_per_step"][0] > 0
        assert metrics["trainer.step_s_p90"][0] == 0.0  # too few steps for a p90
        assert metrics["trainer.step_s_max"][0] >= metrics["trainer.step_s_p50"][0] > 0
        assert 0 < metrics["encoders.pad_useful_ratio"][0] <= 1
        assert metrics["augment.calls"][0] > 0

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = spans.Tracer()
        with tracer.span("root"):
            with tracer.span("trainer.step"):
                pass
        tracer.tape_nodes.append(1)
        tracer.tape_bytes.append(8)
        tracer.counters.update({"pad.real": 1, "pad.slots": 2})
        per_layer = spans.layer_metrics(tracer, rows_read=0, untraced_s=0.0)
        timings = workloads.Timings(setup=[1.0], train=1.0, score=[1.0], trained_seqs=1, scored_seqs=1)
        end_to_end = workloads.end_to_end(timings)
        assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
        assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert metric["unit"] == (end_to_end | per_layer)[metric["name"]][1]


class TestNames:
    def test_every_metric_and_workload_name_uses_the_allowed_characters(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestGenerators:
    def test_synthetic_corpus_is_byte_identical_per_seed(self, tmp_path):
        paths = [tmp_path / f"{i}.jsonl" for i in range(3)]
        for path, seed in zip(paths, (7, 7, 8)):
            gen.write_synthetic_corpus(path, seed, n_users=50)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_userbehavior_csv_is_byte_identical_per_seed(self, tmp_path):
        paths = [tmp_path / f"{i}.csv" for i in range(3)]
        for path, seed in zip(paths, (7, 7, 8)):
            gen.write_userbehavior_csv(path, seed, n_users=50)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_userbehavior_csv_ingests_with_taobao_like_statistics(self, tmp_path):
        path = tmp_path / "ub.csv"
        rows = gen.write_userbehavior_csv(path, seed=1, n_users=2000)
        stats = data.IngestStats()
        corpus = data.ingest_taobao(path, stats=stats)
        assert stats.rows_total == rows and stats.rows_rejected == 0
        assert len(corpus) == 2000 and stats.users_dropped == 0
        diag = data.diagnostics(corpus)
        assert abs(diag.ppl - 1.57) <= 0.05
        assert abs(diag.gini_simpson - 0.20) <= 0.03
        assert 0.05 <= diag.label_mean <= 0.15
        assert max(len(ex.history) for ex in corpus) == 100
        # the planted signal: buyers mostly carted an item just before the cut
        recent_cart = np.array([2 in ex.history.events[-gen.CART_RECENCY :] for ex in corpus])
        labels = np.array([ex.label for ex in corpus], dtype=bool)
        assert recent_cart[labels].mean() > 2 * recent_cart[~labels].mean()
