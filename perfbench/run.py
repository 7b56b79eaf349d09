"""turnpoint benchmark: sweep and training throughput, with a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload analytic_step_sweep --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json; perfbench/README.md says what each
metric means.  With ``--trace 0`` the timed body runs untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
units alternate, and the per-layer metrics are reported.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report and the environment block.  Everything runs in
this one process with ``workers=1``, except the small serial-versus-
parallel check, which starts a two-worker pool and waits for it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOAD_NAMES = ("analytic_step_sweep", "checkpoint_block_sweep", "train_denoiser")

END_TO_END = (("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# One BLAS thread, read by OpenBLAS when numpy loads.  On a 2-vCPU host,
# 603 training steps at batch 128 took 6.5-7.1 s of wall time with one
# OpenBLAS thread or two, but two threads used 13-14 CPU-s against 6.5-6.9.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 9

# On a shared 2-vCPU host (2.1 GHz Xeon), single-thread speed alternated
# between fast and slow phases lasting seconds to minutes, and every
# timing moved with them.  A fixed reference kernel, timed after every
# unit, measures the host's speed.  The end-to-end timings are reported
# scaled to a host on which that kernel takes REFERENCE_NOMINAL_S, its
# fast-phase time there.  Over 30-second windows of checkpoint_block_sweep
# this cut the quartile spread of throughput from 0.24 to 0.05.
REFERENCE_NOMINAL_S = 0.020


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every workload to a few runs or steps (smoke test)",
    )
    return parser.parse_args(argv)


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, when its library can be found."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_thread_pin": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_reported": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": 1,
        "seed": seed,
    }


class HostSpeed:
    """Times a fixed kernel of small numpy calls, the cost shape that
    dominates every workload, to track the host's current speed."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((1, 96))
        self._w = rng.standard_normal((64, 96))
        self._b = rng.standard_normal(64)
        self.samples: list[float] = []

    def sample(self) -> None:
        np, a, w, b = self._np, self._a, self._w, self._b
        start = time.perf_counter()
        for _ in range(2000):
            h = np.tanh(a @ w.T + b)
            u = np.concatenate([h, a[:, :16]], axis=1)
            float(np.sum(u * u))
        self.samples.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        """Mean kernel time relative to REFERENCE_NOMINAL_S."""
        return statistics.fmean(self.samples) / REFERENCE_NOMINAL_S


def _measure(wl, st, seconds: float, checks, between=None, traced_unit=None):
    """Repeat the workload's unit of work for ``seconds``.

    Returns the untraced and the traced units.  With ``traced_unit`` every
    second unit runs traced, so both kinds sample the same stretch of
    host speed.  ``between(fraction_elapsed)`` runs after each unit.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() < start + seconds or not plain
           or (traced_unit is not None and not traced)):
        if traced_unit is not None and len(traced) < len(plain):
            traced.append(traced_unit())
        else:
            plain.append(wl.unit(st))
        wl.check(st, checks)
        if between is not None:
            between((time.perf_counter() - start) / seconds)
    return plain, traced


def _rate(units) -> float:
    # Total over the window, not a median of units: the host alternates
    # between fast and slow phases, and a median jumps between them.
    return sum(u.ops for u in units) / sum(u.seconds for u in units)


def _quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (n={len(values)}, quartiles {q1:.4g} .. {q3:.4g})"


def _run(args, np, workloads, tracer_mod, workdir: str) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    setup_tracer = None
    setup_times = []
    host = HostSpeed(np)
    n_setups = 1 if args.tiny else SETUP_REPEATS

    def timed_setup(elapsed=1.0):
        # The first set-up happens before the window; later ones are spread
        # over it, so set-up time samples the same stretch of machine time.
        if len(setup_times) < 1 + (n_setups - 1) * min(elapsed, 1.0):
            begin = time.perf_counter()
            state = wl.setup(args.seed, workdir, args.tiny)
            setup_times.append(time.perf_counter() - begin)
            return state

    if args.trace:
        setup_tracer = tracer_mod.Tracer()
        tracer_mod.instrument(setup_tracer)
        try:
            st = wl.setup(args.seed, workdir, args.tiny)
        finally:
            setup_tracer.restore()
        setup_tracer.fold()
    else:
        host.sample()
        st = timed_setup()

    body = tracer_mod.Tracer()

    def traced_unit():
        tracer_mod.instrument(body)
        wl.instrument(st, body)
        try:
            return wl.unit(st)
        finally:
            body.restore()  # the checks that follow run untraced
            body.fold()

    warmup = wl.unit(st)  # lets lazy imports and caches settle; checked, not timed
    wl.check(st, checks)
    timed, traced = _measure(
        wl, st, args.seconds, checks,
        between=None if args.trace else lambda elapsed: (host.sample(), timed_setup(elapsed)),
        traced_unit=traced_unit if args.trace else None,
    )
    units = [warmup] + timed
    while not args.trace and len(setup_times) < n_setups:
        timed_setup()
    wl.finish(st, checks)

    ops = sum(u.ops for u in units + traced)
    failed_ops = sum(u.failed for u in units + traced)
    attempted = ops + checks.attempted
    failed = failed_ops + len(checks.failures)
    rates = [u.ops / u.seconds for u in timed]

    print(f"{wl.op_name} measured {_rate(timed)!r} 1/s{_quartiles(rates)}")
    print(f"error_rate {failed / attempted!r} ({failed}/{attempted}: "
          f"{failed_ops} failed ops, {len(checks.failures)} failed of "
          f"{checks.attempted} output checks)")
    for failure in checks.failures[:20]:
        print(f"  check failed: {failure}")

    if args.trace:
        traced_s = sum(u.seconds for u in traced)
        values = tracer_mod.layer_metrics(
            body, setup_tracer,
            units=len(traced),
            traced_seconds=traced_s,
            overhead=_rate(traced) / _rate(timed),
            flops_per_row=wl.flops_per_row(st),
            bytes_written=wl.bytes_written(st),
        )
        units_of = {name: unit for name, unit, _ in tracer_mod.LAYER_METRICS}
        print(f"self-time shares of {traced_s:.3f} s traced ({len(traced)} units):")
        for name, (calls, _, self_s, _) in sorted(body.totals.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:28s} {self_s / traced_s:7.2%}  calls {calls}")
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        slowdown = host.slowdown()
        values = {
            "ops_per_s": _rate(timed) * slowdown,
            "setup_s": statistics.median(setup_times) / slowdown,
            "peak_rss_mb": rss_kib / 1024.0,
        }
        units_of = dict(END_TO_END)
        print(f"host slowdown {slowdown!r}: reference kernel {1e3 * statistics.fmean(host.samples):.2f} ms "
              f"(n={len(host.samples)}) against {1e3 * REFERENCE_NOMINAL_S:g} ms nominal")
        print(f"at nominal host speed: ops_per_s {values['ops_per_s']!r} 1/s, "
              f"setup_s {values['setup_s']!r} s")
        print(f"setup_s measured {statistics.median(setup_times)!r} s{_quartiles(setup_times)}")
        print(f"peak_rss_mb {values['peak_rss_mb']!r} MB")
    print(f"checks: {'PASS' if failed == 0 else 'FAIL'}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in units_of},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("TURNPOINT_WORKERS", None)  # it would override workers=1

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import numpy as np
        import turnpoint
    except ImportError as exc:
        print(f"perfbench: cannot import turnpoint from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(turnpoint.__file__).startswith(src + os.sep):
        print(f"perfbench: turnpoint loaded from {turnpoint.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(_environment(np, args.seed), sort_keys=True))
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = _run(args, np, workloads, tracer_mod, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
