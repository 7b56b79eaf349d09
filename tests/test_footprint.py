"""A run loads only the modules it uses: importing the package, ``--help``
and a serial sweep load neither the network stack nor a process pool.

Each case runs in a fresh interpreter, which prints its ``sys.modules``
as the last line of standard output.  ``urllib.parse`` is not checked:
numpy imports ``pathlib``, which imports it.  ``workers=2`` keeps its
pool, which the serial-equals-parallel tests cover.
"""

import json

from helpers import run_python
from turnpoint.worldgen import generate_suite, write_suite

UNUSED = ("xml", "urllib.request", "http", "ssl", "email", "socket", "multiprocessing")


def loaded_modules(code: str) -> list[str]:
    """The module names loaded after ``code`` runs in a fresh interpreter."""
    proc = run_python(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def unused_loaded(modules) -> list[str]:
    return [m for m in modules if any(m == u or m.startswith(u + ".") for u in UNUSED)]


def test_import_loads_no_network_stack_or_process_pool():
    modules = loaded_modules("import turnpoint")
    assert "turnpoint.svgchart" in modules and "turnpoint.harness" in modules
    assert unused_loaded(modules) == []


def test_help_loads_no_network_stack_or_process_pool():
    modules = loaded_modules(
        "from turnpoint.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0"
    )
    assert unused_loaded(modules) == []


def test_serial_sweep_loads_no_network_stack_or_process_pool(tmp_path):
    suite = tmp_path / "suite.jsonl"
    write_suite(generate_suite(0)[:2], suite)
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"suite": str(suite), "grid": [0.0, 1.0], "repeats": 1,
                               "n_steps": 4, "frames": 8, "out_dir": str(out)}))
    modules = loaded_modules(
        f"from turnpoint.cli import main\nassert main(['sweep', '--config', {str(cfg)!r}]) == 0"
    )
    assert list(out.glob("*.svg"))  # the report's charts were drawn
    assert unused_loaded(modules) == []


def test_the_guard_sees_a_loaded_module():
    loaded = unused_loaded(loaded_modules("import turnpoint, xml.sax.saxutils"))
    assert {"xml", "urllib.request", "ssl"} <= set(loaded)
