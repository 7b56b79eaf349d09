"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public callables of the loaded ``turnpoint`` modules by
rebinding every module global that refers to them, so calls made inside
the package are traced too; the package source is not edited.  A span
is ``[name, start, end, parent, rows]``.  A layer's self time is its
span time minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time

__all__ = ["LAYER_METRICS", "Tracer", "instrument", "layer_metrics"]

# (name, unit, better) in the order BENCHMARK.json lists them.  Counts
# are per unit of work (one sweep, or one train -> save_checkpoint
# call); ``.us`` and ``.self_us`` are means per call; ``.s`` is seconds
# per unit of work, except the set-up spans, which are seconds per
# set-up.  Units ending in ``_computed`` are derived, not timed.
LAYER_METRICS = (
    ("harness.backend_build.calls", "count", "lower"),
    ("harness.backend_build.us", "us", "lower"),
    ("harness.run_sweep.self_s", "s", "lower"),
    ("harness.aggregate.s", "s", "lower"),
    ("diffusion.sample.calls", "count", "lower"),
    ("diffusion.sample.self_us", "us", "lower"),
    ("diffusion.ancestral_step.calls", "count", "lower"),
    ("diffusion.ancestral_step.us", "us", "lower"),
    ("diffusion.ancestral_step.rows_per_call", "rows", "higher"),
    ("analytic.predict_eps.calls", "count", "lower"),
    ("analytic.predict_eps.self_us", "us", "lower"),
    ("analytic.predict_eps.rows_per_call", "rows", "higher"),
    ("analytic.diffused_mixture.calls", "count", "lower"),
    ("analytic.diffused_mixture.us", "us", "lower"),
    ("neural.forward.calls", "count", "lower"),
    ("neural.forward.us", "us", "lower"),
    ("neural.forward.rows_per_call", "rows", "higher"),
    ("neural.forward.flops_per_row", "flop_computed", "lower"),
    ("neural.loss_and_grads.us", "us", "lower"),
    ("neural.adam_update.us", "us", "lower"),
    ("neural.checkpoint_io.s", "s", "lower"),
    ("worldgen.data_draw.us", "us", "lower"),
    ("worldgen.generate_suite.s", "s", "lower"),
    ("metrics.evaluate.calls", "count", "lower"),
    ("metrics.evaluate.us", "us", "lower"),
    ("report.emit_report.s", "s", "lower"),
    ("report.bytes_written", "bytes_computed", "lower"),
    ("trace.overhead", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
)

# Entry points of a unit of work; ``trace.coverage`` is the share of the
# traced wall time that the self times of the spans below them explain.
ENTRY_SPANS = ("harness.run_sweep", "neural.train")


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    """Records spans of wrapped callables and folds them into per-name totals."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s, rows]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, rows_arg: int | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rows = 0 if rows_arg is None else _rows(args[rows_arg])
            span = [name, clock(), 0.0, stack[-1] if stack else None, rows]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def patch(self, fn, name: str, rows_arg: int | None = None) -> None:
        """Rebind every ``turnpoint`` module global that refers to ``fn``."""
        traced = self.wrap(name, fn, rows_arg)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "turnpoint" and not mod_name.startswith("turnpoint."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, traced)

    def patch_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def fold(self) -> None:
        """Add the recorded spans to the totals and forget them."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, rows) in enumerate(self.spans):
            acc = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
            acc[3] += rows
        self.spans.clear()


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from turnpoint import analytic, diffusion, harness, metrics, neural, report, worldgen

    tracer.patch(harness.run_sweep, "harness.run_sweep")
    tracer.patch(harness.aggregate, "harness.aggregate")
    tracer.patch(harness.backend_for_record, "harness.backend_build")
    tracer.patch(neural.NeuralDenoiser, "harness.backend_build")
    tracer.patch(diffusion.build_schedule, "harness.build_schedule")
    tracer.patch(diffusion.sample, "diffusion.sample")
    tracer.patch(diffusion.ancestral_step, "diffusion.ancestral_step", rows_arg=0)
    tracer.patch(analytic.predict_eps, "analytic.predict_eps", rows_arg=0)
    tracer.patch(analytic.diffused_mixture, "analytic.diffused_mixture")
    tracer.patch(neural.forward, "neural.forward", rows_arg=1)
    tracer.patch(neural.loss_and_grads, "neural.loss_and_grads")
    tracer.patch_attr(
        neural.AdamState, "update",
        tracer.wrap("neural.adam_update", neural.AdamState.update),
    )
    tracer.patch(neural.train, "neural.train")
    tracer.patch(neural.save_checkpoint, "neural.checkpoint_io")
    tracer.patch(neural.load_checkpoint, "neural.checkpoint_io")
    tracer.patch(worldgen.generate_suite, "worldgen.generate_suite")
    tracer.patch(metrics.evaluate, "metrics.evaluate")
    tracer.patch(report.emit_report, "report.emit_report")


def layer_metrics(
    body: Tracer,
    setup: Tracer,
    units: int,
    traced_seconds: float,
    overhead: float,
    flops_per_row: float,
    bytes_written: float,
) -> dict[str, float]:
    """Per-layer figures from a traced timed body and a traced set-up."""

    def calls(name):
        return body.totals.get(name, [0])[0]

    def per_call(name, column):
        acc = body.totals.get(name)
        return acc[column] / acc[0] if acc else 0.0

    def per_unit(tracer, name, column, n):
        acc = tracer.totals.get(name)
        return acc[column] / n if acc else 0.0

    build_calls = calls("harness.backend_build")
    build_s = per_unit(body, "harness.backend_build", 1, 1) + per_unit(
        body, "harness.build_schedule", 1, 1
    )
    values = {
        "harness.backend_build.calls": build_calls / units,
        "harness.backend_build.us": 1e6 * build_s / build_calls if build_calls else 0.0,
        "harness.run_sweep.self_s": per_unit(body, "harness.run_sweep", 2, units),
        "harness.aggregate.s": per_unit(body, "harness.aggregate", 1, units),
        "neural.forward.flops_per_row": flops_per_row,
        "neural.checkpoint_io.s": per_unit(setup, "neural.checkpoint_io", 1, 1),
        "worldgen.generate_suite.s": per_unit(setup, "worldgen.generate_suite", 1, 1),
        "report.emit_report.s": per_unit(body, "report.emit_report", 1, units),
        "report.bytes_written": bytes_written,
        "trace.overhead": overhead,
        "trace.coverage": sum(
            acc[2] for name, acc in body.totals.items() if name not in ENTRY_SPANS
        ) / traced_seconds,
    }
    for name, _, _ in LAYER_METRICS:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(span) / units
        elif kind == "us":
            values[name] = 1e6 * per_call(span, 1)
        elif kind == "self_us":
            values[name] = 1e6 * per_call(span, 2)
        elif kind == "rows_per_call":
            values[name] = per_call(span, 3)
        else:
            raise KeyError(f"no rule for layer metric {name}")
    return values
