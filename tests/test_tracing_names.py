"""The names the benchmark's tracer binds, checked in tier 1.

bench/tracing.py wraps functions and methods of eiskron by name; a name
that was renamed or deleted would otherwise surface only in a traced
benchmark run.  The module is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from eiskron import qseries, relations

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("eiskron_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(tracing):
    for name, (module_name, attr) in tracing.BOUNDARIES.items():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert inspect.isfunction(getattr(module, cls_name).__dict__.get(meth)), name
        else:
            assert inspect.isfunction(getattr(module, attr, None)), name


def test_relations_binds_the_kernel_by_name():
    # the tracer replaces convolve_int at every module that binds it
    assert relations.convolve_int is qseries.convolve_int


def test_operand_bits_reads_packed_items(tracing):
    # _operand_bits reads the kernel's operands through PackedSeries.items
    assert inspect.isfunction(qseries.PackedSeries.__dict__.get("items"))
    x = relations._Level(3, 4).series_at(2, (1, 0))
    assert tracing._operand_bits(3, 4, x, x) > 0
