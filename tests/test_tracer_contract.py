"""The benchmark's tracer wraps every name of ``LAYERS`` in
``perfbench/spans.py``, looked up in its ``plumbcalc`` module by
``getattr``: a name removed from the package must fail here, not only in
a traced benchmark run."""

import importlib

from conftest import perfbench_module


def test_every_traced_layer_resolves():
    layers = perfbench_module("spans").LAYERS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"plumbcalc.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"plumbcalc.{layer}.{name}"
