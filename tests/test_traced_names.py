"""Every pdnet name the benchmark reaches still exists.

``perfbench/tracing.py`` wraps pdnet callables by module and attribute name.
A name pdnet no longer has is only reported as "not in this version of
pdnet" and its layer metrics read 0, so a refactor that drops one must fail
here instead.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from pdnet import operators

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def _unresolved(entries):
    """Entries ``Tracer.install`` would list as missing, resolved the same way."""
    missing = []
    for target, attr, _ in entries:
        mod_name, _, cls_name = target.partition(".")
        owner = importlib.import_module("pdnet." + mod_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{target}.{attr}")
    return missing


@pytest.mark.parametrize("table", ["PATCHES", "PROBES"])
def test_every_traced_name_resolves(tracing, table):
    entries = getattr(tracing, table)
    assert entries
    assert _unresolved(entries) == []


def test_names_the_workloads_call_exist():
    assert isinstance(operators.ANALYSIS_MACS.count, int)
    blur = operators.degradation_from_spec(
        {"kind": "uniform-blur", "size_or_factor": 3, "image_side": 8})
    assert blur.spec() == {"kind": "uniform-blur", "size_or_factor": 3, "image_side": 8}


@pytest.mark.parametrize("build", [
    lambda: operators.block_sparse_analysis(3, 3, 2, 6, [(0, 0), (3, 3)], np.ones(36)),
    lambda: operators.make_block_sparse_analysis(5, 2, 10, 28, seed=1, site_rule="fit"),
    lambda: operators.make_first_difference(6),
    lambda: operators.make_scaled_identity_analysis(9, 0.5),
], ids=["block", "make-block", "first-difference", "scaled-identity"])
def test_masked_parts_are_exactly_the_traced_class(build):
    # tracing patches MaskedRowAnalysis's own methods by name: a subclass that
    # overrides them would leave its products out of the operators.masked spans
    assert type(build()) is operators.MaskedRowAnalysis
