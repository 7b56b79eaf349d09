"""The benchmark tracer's hooks still name functions the package has.

``perfbench/tracer.py`` wraps package functions by name; renaming one
would otherwise only fail the benchmark's own smoke test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from helpers import chain_counts
from turnpoint import harness, neural
from turnpoint.conditioning import block_split, step_switch
from turnpoint.diffusion import build_schedule
from turnpoint.neural import TrainConfig, init_model, save_checkpoint
from turnpoint.worldgen import condition_of, generate_suite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_tracer_instruments_and_restores_the_package():
    tracer_module = load_tracer_module()
    originals = (neural.AdamState.update, neural.loss_and_grads, neural.save_checkpoint)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        assert neural.loss_and_grads is not originals[1]
    finally:
        tracer.restore()
    assert (neural.AdamState.update, neural.loss_and_grads, neural.save_checkpoint) == originals


def distinct_chain_rows(out, record, plan_at, n_steps) -> int:
    """Rows the sampler predicts for one prompt's runs ``out``: one per
    distinct chain at each step."""
    plans = [plan_at(r.x, condition_of(record, "event1"), condition_of(record, "event2"))
             for r in out]
    return sum(chain_counts(plans, [r.seed for r in out], n_steps))


def test_traced_layers_stay_on_the_analytic_sweep_path(tmp_path):
    # one prompt is one batch: one prediction and one update per step for
    # the batch's distinct chains, and one metrics call
    tracer_module = load_tracer_module()
    cfg = harness.SweepConfig(
        mode="step_switch", grid=(0.0, 0.5, 1.0), repeats=2, n_steps=10,
        frames=4, out_dir=str(tmp_path / "out"),
    )
    records = generate_suite(0)[:1]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        out = harness.run_sweep(cfg, records)
    finally:
        tracer.restore()
    tracer.fold()
    calls = {name: acc[0] for name, acc in tracer.totals.items()}
    rows = {name: acc[3] for name, acc in tracer.totals.items()}
    assert len(out) == 6 and all(r.error is None for r in out)
    assert calls["diffusion.sample"] == 1
    assert calls["analytic.predict_eps"] == cfg.n_steps
    # per repeat, the x = 0 chain and the shared x = 0.5/1 chain for 5
    # steps, then three chains: 5 * 2 + 5 * 3
    chain_rows = distinct_chain_rows(
        out, records[0], lambda x, c1, c2: step_switch(x, cfg.n_steps, c1, c2), cfg.n_steps
    )
    assert chain_rows == 2 * (5 * 2 + 5 * 3)
    assert rows["analytic.predict_eps"] == chain_rows
    assert calls["diffusion.ancestral_step"] == cfg.n_steps
    assert calls["metrics.evaluate"] == 1


def test_traced_layers_stay_on_the_checkpoint_sweep_path(tmp_path):
    # one prompt is one batch: one forward pass and one update per step
    # for the whole batch, through the public neural.forward the tracer wraps
    tracer_module = load_tracer_module()
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(8 * 6, hidden=4, n_blocks=2, t_emb_dim=4, cond_width=7), path)
    cfg = harness.SweepConfig(
        mode="block_split", backend=str(path), grid=(0.0, 0.5, 1.0), repeats=2,
        n_steps=10, frames=8, out_dir=str(tmp_path / "out"),
    )
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        out = harness.run_sweep(cfg, generate_suite(0)[:1])
    finally:
        tracer.restore()
    tracer.fold()
    calls = {name: acc[0] for name, acc in tracer.totals.items()}
    rows = {name: acc[3] for name, acc in tracer.totals.items()}
    assert len(out) == 6 and all(r.error is None for r in out)
    assert calls["diffusion.sample"] == 1
    assert calls["neural.forward"] == cfg.n_steps
    assert rows["neural.forward"] == cfg.n_steps * len(out)
    assert calls["diffusion.ancestral_step"] == cfg.n_steps


def test_traced_forward_rows_count_distinct_chains_on_a_checkpoint(tmp_path):
    # at 2 blocks, x = 0.0 and 0.1 both give floor(2x) = 0: one block plan,
    # so a repeat's three runs are two chains
    tracer_module = load_tracer_module()
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(8 * 6, hidden=4, n_blocks=2, t_emb_dim=4, cond_width=7), path)
    cfg = harness.SweepConfig(
        mode="block_split", backend=str(path), grid=(0.0, 0.1, 1.0), repeats=2,
        n_steps=10, frames=8, out_dir=str(tmp_path / "out"),
    )
    records = generate_suite(0)[:1]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        out = harness.run_sweep(cfg, records)
    finally:
        tracer.restore()
    tracer.fold()
    calls = {name: acc[0] for name, acc in tracer.totals.items()}
    rows = {name: acc[3] for name, acc in tracer.totals.items()}
    assert len(out) == 6 and all(r.error is None for r in out)
    chain_rows = distinct_chain_rows(
        out, records[0], lambda x, c1, c2: block_split(x, 2, c1, c2), cfg.n_steps
    )
    assert chain_rows == cfg.n_steps * 2 * 2
    assert calls["neural.forward"] == cfg.n_steps
    assert rows["neural.forward"] == chain_rows


def test_traced_train_counts_one_gradient_and_one_update_per_step():
    # the benchmark's training per-layer numbers are read from these spans;
    # at 128 rows each step's update begins on the helper inside the
    # backward pass, which must still leave one span of each per step
    for batch_size in (4, 128):
        check_traced_train_spans(batch_size)


def check_traced_train_spans(batch_size):
    tracer_module = load_tracer_module()
    model = init_model(6, hidden=4, n_blocks=2, t_emb_dim=4, cond_width=1, seed=0)

    def draw(rng, n):
        return rng.standard_normal((n, model.dim)), rng.standard_normal((n, model.cond_dim))

    k = 7
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        neural.train(model, draw, TrainConfig(steps=k, batch_size=batch_size), build_schedule(10))
    finally:
        tracer.restore()
    tracer.fold()
    calls = {name: acc[0] for name, acc in tracer.totals.items()}
    assert calls["neural.train"] == 1
    assert calls["neural.loss_and_grads"] == k
    assert calls["neural.adam_update"] == k
