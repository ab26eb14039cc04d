"""In-memory span tracer that wraps the library's public functions from
outside, at the module attributes through which other modules call them.

A span is one wrapped call: its name, start, end, parent span and the id
of the training step it ran in (-1 outside a step). A step runs from the
trainer entering `numcore.tape()` to the end of the `adamw_step` that
follows it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from seqssl import cli, data, encoders, numcore, pretext, trainer

NO_STEP = -1
NO_PARENT = -1
# step_s_p90 needs ten samples beyond it; with fewer steps it reports 0 and
# step_s_max stands in.
MIN_STEPS_FOR_P90 = 100


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int
    step: int


@dataclass
class Tracer:
    """Open/close spans on a stack; counters record work done at the same
    boundaries."""

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    tape_nodes: list[int] = field(default_factory=list)
    tape_bytes: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _step: int = NO_STEP
    _step_span: int | None = None
    _steps: int = 0
    _tape: object = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, self.clock(), None, parent, self._step))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def wrap(self, fn, name: str):
        # open/close rather than span(): this runs once per sequence for
        # augmentations and histograms, where a generator costs too much.
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # training steps -------------------------------------------------------

    def begin_step(self, tape) -> None:
        self._step = self._steps
        self._steps += 1
        self._step_span = self.open("trainer.step")
        self._tape = tape

    def end_step(self) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
        self._step_span = None
        self._step = NO_STEP

    def leave_tape(self) -> None:
        self._tape = None

    def in_tape(self) -> bool:
        return self._tape is not None

    def record_tape(self) -> None:
        """Count the active tape's nodes and the bytes their values hold."""
        with self.span("trace.tape_count"):
            nodes = self._tape.nodes
            self.tape_nodes.append(len(nodes))
            self.tape_bytes.append(sum(node.values.nbytes for node in nodes))


def _traced_tape(tracer: Tracer, real_tape):
    class TracedTape:
        """`numcore.tape` that also opens the training step's span."""

        def __enter__(self):
            self._inner = real_tape()
            active = self._inner.__enter__()
            tracer.begin_step(active)
            return active

        def __exit__(self, *exc):
            tracer.leave_tape()
            return self._inner.__exit__(*exc)

    return TracedTape


def _traced_backward(tracer: Tracer, real_backward):
    def backward(loss):
        if tracer.in_tape():
            tracer.record_tape()
        with tracer.span("numcore.backward"):
            return real_backward(loss)

    return backward


def _traced_adamw(tracer: Tracer, real_adamw):
    def adamw_step(state, params):
        try:
            with tracer.span("numcore.adamw"):
                return real_adamw(state, params)
        finally:
            tracer.end_step()

    return adamw_step


def _traced_encode(tracer: Tracer, real_encode):
    def encode(*args, **kwargs):
        if tracer.in_tape():
            name = "encoders.encode_train"
        elif tracer.inside("trainer.score_examples"):
            name = "encoders.encode_score"
        else:
            name = "encoders.encode_val"
        with tracer.span(name):
            return real_encode(*args, **kwargs)

    return encode


def _traced_pad(tracer: Tracer, real_pad):
    def pad_views(views, k):
        with tracer.span("encoders.pad"):
            batch = real_pad(views, k)
        tracer.count("pad.real", int(batch.lengths.sum()))
        tracer.count("pad.slots", batch.rows.size)
        return batch

    return pad_views


# (module, attribute, span name): every call site the tracer wraps. The
# benchmark itself calls cli, data and trainer through these same module
# attributes, so its setup, training and scoring calls are wrapped too.
WRAPPED = (
    (cli, "load_config", "cli.load_config"),
    (data, "load_corpus", "data.load"),
    (data, "ingest_taobao", "data.ingest"),
    (trainer, "pretrain", "trainer.pretrain"),
    (trainer, "finetune", "trainer.finetune"),
    (trainer, "score_examples", "trainer.score_examples"),
    (trainer, "time_split", "data.split"),
    (trainer, "compute_task_loss", "pretext.compute_task_loss"),
    (trainer, "identity", "augment.identity"),
    (trainer, "save_checkpoint", "encoders.checkpoint"),
    (trainer, "auc", "metrics.auc"),
    (encoders, "save_checkpoint", "encoders.checkpoint"),
    (pretext, "identity", "augment.identity"),
    (pretext, "random_permute", "augment.random_permute"),
    (pretext, "segment_mask", "augment.segment_mask"),
    (pretext, "twin_views", "augment.twin_views"),
    (pretext, "empirical_histogram", "data.histogram"),
    (pretext, "gather_masked_states", "pretext.gather_masked"),
)


@contextmanager
def instrument(tracer: Tracer):
    """Patch every wrapped call site for the duration of the block."""
    patches = [(module, attr, tracer.wrap(getattr(module, attr), name)) for module, attr, name in WRAPPED]
    patches += [(module, "encode", _traced_encode(tracer, module.encode)) for module in (trainer, pretext)]
    patches += [(module, "pad_views", _traced_pad(tracer, module.pad_views)) for module in (trainer, pretext)]
    patches += [
        (numcore, "tape", _traced_tape(tracer, numcore.tape)),
        (numcore, "backward", _traced_backward(tracer, numcore.backward)),
        (numcore, "adamw_step", _traced_adamw(tracer, numcore.adamw_step)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapped in patches:
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent and merged)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent != NO_PARENT:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def check_tree(spans: list[Span]) -> None:
    """Span 0 is the root and every other span lies under it, so the self
    times add up to the root's duration."""
    outside = [span.name for span in spans[1:] if span.parent == NO_PARENT]
    if outside:
        raise AssertionError(f"spans outside the root span: {sorted(set(outside))}")
    total, wall = sum(self_times(spans)), spans[0].end - spans[0].start
    if abs(total - wall) > 1e-6:
        raise AssertionError(f"self times add up to {total} s, the root span lasts {wall} s")


def layer_metrics(tracer: Tracer, rows_read: int, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as {name: (value, unit)}, over every recorded
    span; span 0 is the workload's root. Times are self times unless named
    otherwise. `rows_read` is the set-up's input row count and `untraced_s`
    the wall time of the same work untraced."""
    spans = tracer.spans
    own = self_times(spans)
    wall_s = spans[0].end - spans[0].start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + self_s

    def s(prefix: str) -> float:
        return sum(v for name, v in busy.items() if name.startswith(prefix))

    def n(prefix: str) -> int:
        return sum(v for name, v in calls.items() if name.startswith(prefix))

    steps = [span.end - span.start for span in spans if span.name == "trainer.step"]
    val_s = sum(
        span.end - span.start
        for span in spans
        if (span.name == "pretext.compute_task_loss" and span.step == NO_STEP)
        or (span.name == "trainer.score_examples" and spans[span.parent].name == "trainer.finetune")
    )
    ingest_s = s("data.ingest")
    real, slots = tracer.counters.get("pad.real", 0), tracer.counters.get("pad.slots", 0)
    return {
        "numcore.backward_s": (s("numcore.backward"), "s"),
        "numcore.backward_calls": (n("numcore.backward"), "count"),
        "numcore.tape_nodes_per_step": (float(np.median(tracer.tape_nodes)), "count"),
        "numcore.tape_bytes_per_step": (float(np.median(tracer.tape_bytes)), "bytes"),
        "numcore.adamw_s": (s("numcore.adamw"), "s"),
        "numcore.adamw_calls": (n("numcore.adamw"), "count"),
        "encoders.encode_train_s": (s("encoders.encode_train"), "s"),
        "encoders.encode_score_s": (s("encoders.encode_score"), "s"),
        "encoders.encode_val_s": (s("encoders.encode_val"), "s"),
        "encoders.encode_calls": (n("encoders.encode_"), "count"),
        "encoders.pad_s": (s("encoders.pad"), "s"),
        "encoders.pad_calls": (n("encoders.pad"), "count"),
        "encoders.pad_useful_ratio": (real / slots, "ratio"),
        "encoders.pad_real_positions": (real, "count"),
        "encoders.pad_padded_positions": (slots, "count"),
        "encoders.checkpoint_s": (s("encoders.checkpoint"), "s"),
        "augment.s": (s("augment."), "s"),
        "augment.calls": (n("augment."), "count"),
        "data.load_s": (s("data.load"), "s"),
        "data.ingest_s": (ingest_s, "s"),
        "data.ingest_rows_per_s": (rows_read / ingest_s if ingest_s else 0.0, "rows/s"),
        "data.split_s": (s("data.split"), "s"),
        "data.histogram_s": (s("data.histogram"), "s"),
        "data.histogram_calls": (n("data.histogram"), "count"),
        "pretext.task_loss_self_s": (s("pretext.compute_task_loss"), "s"),
        "pretext.gather_masked_s": (s("pretext.gather_masked"), "s"),
        "trainer.steps": (len(steps), "count"),
        "trainer.step_s_p50": (float(np.percentile(steps, 50)), "s"),
        "trainer.step_s_p90": (float(np.percentile(steps, 90)) if len(steps) >= MIN_STEPS_FOR_P90 else 0.0, "s"),
        "trainer.step_s_max": (max(steps), "s"),
        "trainer.val_s": (val_s, "s"),
        "trainer.self_s": (s("trainer."), "s"),
        "trainer.step_self_share": (s("trainer.step") / sum(steps), "ratio"),
        "metrics.auc_s": (s("metrics.auc"), "s"),
        "metrics.auc_calls": (n("metrics.auc"), "count"),
        "cli.load_config_s": (s("cli.load_config"), "s"),
        "bench.self_s": (own[0], "s"),
        "trace.tape_count_s": (s("trace.tape_count"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.overhead_s": (wall_s - untraced_s, "s"),
    }
