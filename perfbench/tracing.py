"""In-memory tracing of calls into the public functions of ``mskd``.

The tracer replaces a traced function in every ``mskd`` module namespace that
holds it, which is the attribute a caller looks up (``mskd.train.softmax`` as
well as ``mskd.policy.softmax``), so calls made from inside the package are
seen too.  ``restore`` puts every original object back.  No file of the
package is touched.

Functions called at most a few thousand times per op are recorded as spans
(id, name, start, end, parent span id, op id, leaf time).  The hot leaves,
called up to hundreds of thousands of times per op, keep only a call count
and busy time; their time is charged to the enclosing span as ``leaf`` time,
so span self time stays exact.  A span-kind function must never run beneath
a count-kind one, or that time would be subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"


def _valid(resp) -> tuple[int, int]:
    return int(resp.task_valid), 1


def _retained(pool) -> tuple[int, int]:
    if pool.qualities is None:
        return 0, 0
    return sum(1 for q in pool.qualities if q > 0.0), len(pool.qualities)


# (layer, function, kind, tally).  The layer is the module of src/mskd the
# function belongs to; a tally maps a result to (useful, attempted) counts.
TARGETS = (
    ("cli", "main", SPAN, None),
    ("analysis", "analyze_variance", SPAN, None),
    ("harness", "emit_report", SPAN, None),
    ("harness", "make_closed_benchmark", SPAN, None),
    ("corpus", "read_examples", SPAN, None),
    ("corpus", "read_responses", SPAN, None),
    ("pool", "write_pool_cache", SPAN, None),
    ("pool", "read_pool_cache", SPAN, None),
    ("pool", "build_pool", COUNT, None),
    ("pool", "apply_filter", COUNT, _retained),
    ("pool", "matching_distribution", COUNT, None),
    ("pool", "sample_matches", COUNT, None),
    ("train", "run_pipeline", SPAN, None),
    ("train", "make_pools", SPAN, None),
    ("train", "build_caches", SPAN, None),
    ("train", "pool_features", SPAN, None),
    ("train", "select_sft_targets", SPAN, None),
    ("train", "eval_accuracy", SPAN, None),
    ("train", "rl_step", SPAN, None),
    ("rewards", "composite_reward", COUNT, None),
    ("discriminator", "score_batch", COUNT, None),
    ("discriminator", "batch_update", COUNT, None),
    ("policy", "kl_gradient_logits", COUNT, None),
    ("policy", "softmax", COUNT, None),
    ("policy", "nucleus", COUNT, None),
    ("synthetic", "sample_teacher_pool", COUNT, None),
    ("synthetic", "calibrate_concentration", COUNT, None),
    ("synthetic", "sampling_probs", COUNT, None),
    ("synthetic", "retention_probability", COUNT, None),
    ("tasks", "parse_response", COUNT, _valid),
    ("metrics", "quality_score", COUNT, None),
    ("kernels", "levenshtein", COUNT, None),
    ("kernels", "interval_iou", COUNT, None),
    ("kernels", "box_iou", COUNT, None),
)


class Stat:
    """Per-function totals: calls, busy seconds, raised calls, tally counts."""

    __slots__ = ("calls", "busy", "errors", "useful", "attempted")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.errors = 0
        self.useful = 0
        self.attempted = 0


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus child spans minus leaf time."""
    child = defaultdict(float)
    for _sid, _name, start, end, parent, _op, _leaf in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _op, leaf in spans:
        out[name] += (end - start) - child[sid] - leaf
    return dict(out)


class Tracer:
    """Wraps TARGETS on ``install`` and records spans and counts in memory."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.stats: dict[str, Stat] = {f"{layer}.{func}": Stat() for layer, func, _, _ in targets}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, kind: str, tally):
        st = self.stats[name]
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = perf_counter
        tracer = self

        if kind == SPAN:

            def wrapper(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                frame = [next(ids), 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    st.errors += 1
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    st.calls += 1
                    st.busy += t1 - t0
                    spans.append((frame[0], name, t0, t1, parent, tracer.op_id, frame[1]))
                if tally is not None:
                    useful, attempted = tally(result)
                    st.useful += useful
                    st.attempted += attempted
                return result

        else:

            def wrapper(*args, **kwargs):
                frame = [stack[-1][0] if stack else None, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    st.errors += 1
                    raise
                finally:
                    dt = clock() - t0
                    stack.pop()
                    st.calls += 1
                    st.busy += dt
                    if stack:
                        stack[-1][1] += dt
                if tally is not None:
                    useful, attempted = tally(result)
                    st.useful += useful
                    st.attempted += attempted
                return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "mskd" or n.startswith("mskd.")]
        for layer, func, kind, tally in self.targets:
            name = f"{layer}.{func}"
            home = sys.modules.get(f"mskd.{layer}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, kind, tally)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op calls and busy seconds of every target, self seconds of spans."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for layer, func, kind, _ in self.targets:
            name = f"{layer}.{func}"
            out[f"{name}.calls"] = self.stats[name].calls / n_ops
            out[f"{name}.busy_s"] = self.stats[name].busy / n_ops
            if kind == SPAN:
                out[f"{name}.self_s"] = selfs.get(name, 0.0) / n_ops
        return out

    def write_spans(self, fh) -> None:
        """Write one JSON line per span to the open text file ``fh``."""
        for sid, name, start, end, parent, op, leaf in self.spans:
            record = {"id": sid, "name": name, "start": start, "end": end,
                      "parent": parent, "op": op, "leaf_s": leaf}
            fh.write(json.dumps(record) + "\n")
