"""The benchmark tracer's hooks still name functions the package has.

``perfbench/tracer.py`` wraps package functions by name; renaming one
would otherwise only fail the benchmark's own smoke test.
"""

import importlib.util
from pathlib import Path

from turnpoint import neural

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_instruments_and_restores_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = (neural.AdamState.update, neural.loss_and_grads, neural.save_checkpoint)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        assert neural.loss_and_grads is not originals[1]
    finally:
        tracer.restore()
    assert (neural.AdamState.update, neural.loss_and_grads, neural.save_checkpoint) == originals
