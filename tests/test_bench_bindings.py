"""The benchmark's tracer binds valgebra functions by module and name.

`perfbench/tracing.py` wraps each (module, name) in `TRACED` and reads
`cache_info()` of each entry in `CACHES`; `Tracer.install()` raises KeyError
when one of them is gone, so a rename must fail here before it breaks a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import valgebra  # noqa: F401 - the tracer patches modules of an imported package

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = load_tracing()
    for mod_name, fn_name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(mod_name), fn_name)), (mod_name, fn_name)


def test_traced_caches_resolve():
    tracing = load_tracing()
    for mod_name, fn_name in tracing.CACHES.values():
        assert callable(getattr(importlib.import_module(mod_name), fn_name).cache_info), (mod_name, fn_name)
