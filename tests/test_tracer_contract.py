"""The benchmark tracer's wrapping table must name functions that exist.

``perfbench/tracing.py`` rebinds the module attributes listed in its
``SPANNED`` and ``COUNTED`` tables; ``perfbench/run.py`` reads its
``binomial.kbin_s`` metric from spans named ``binomial.binom_k`` under
``predsets.psw_threshold``.  Those are PS-W's scalar full-set test only:
the k(N) table comes from ``binom_k_range``, which is not spanned, so its
time counts in ``predsets.psw_s``.  Renaming or removing any of these functions
breaks traced benchmark runs, so the contract is checked here.  The
tracer is loaded from its file, not imported as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TABLE = [
    (module, attr)
    for table in (tracing.SPANNED, tracing.COUNTED)
    for module, attrs in table.items()
    for attr in attrs
]


@pytest.mark.parametrize("module_name, attr", TABLE)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"


def test_kbin_table_span_name():
    predsets = importlib.import_module("pacshift.predsets")
    assert tracing.span_name(predsets.binom_k) == "binomial.binom_k"
    assert tracing.span_name(predsets.psw_threshold) == "predsets.psw_threshold"
