"""The benchmark's workloads must keep working against the library.

``perfbench/workloads.py`` imports pacshift names, reaches module
attributes such as ``harness.psw_threshold``, and rebuilds a
``ThresholdResult`` from each ``calibrate`` report's ``status`` and
``tau``.  A library change that breaks any of these breaks the benchmark,
so the contract is checked here.  The module is loaded from its file, not
imported as a package; loading it resolves every name it imports.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

import pacshift
from pacshift import ThresholdResult

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
MODULE_ATTRS = sorted(
    set(re.findall(r"\b(harness|predsets|weights)\.(\w+)", WORKLOADS.read_text()))
)
CONSISTENT = [(0.3, "calibrated"), (-math.inf, "full_set"), (math.nan, "aborted")]
INCONSISTENT = [
    (0.3, "aborted"), (0.3, "full_set"), (0.3, "bogus"), (-math.inf, "calibrated"),
    (-math.inf, "aborted"), (math.nan, "calibrated"), (math.nan, "full_set"),
    (math.inf, "calibrated"),
]


def test_every_workload_is_registered():
    assert {"severe3", "severe3-m20k", "cli-k100"} <= workloads.WORKLOADS.keys()


@pytest.mark.parametrize("module_name, attr", MODULE_ATTRS)
def test_module_attribute_resolves(module_name, attr):
    module = getattr(pacshift, module_name)
    assert callable(getattr(module, attr, None)), f"pacshift.{module_name}.{attr} is gone"


@pytest.mark.parametrize("tau, status", CONSISTENT)
def test_report_status_and_tau_rebuild_a_result(tau, status):
    result = ThresholdResult(tau=tau, status=status)
    assert result.status == status == workloads.status_of(tau)


@pytest.mark.parametrize("tau, status", INCONSISTENT)
def test_contradicting_status_raises(tau, status):
    with pytest.raises(ValueError):
        ThresholdResult(tau=tau, status=status)
