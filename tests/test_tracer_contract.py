"""The benchmark's tracer wraps every name of ``LAYERS`` in
``perfbench/spans.py``, looked up in its ``plumbcalc`` module by
``getattr``: a name removed from the package must fail here, not only in
a traced benchmark run.  The calls that ``perfbench/run.py`` makes for its
workloads, and that the tracer's hooks make of what they return, are made
here too, on small inputs, so that a changed signature fails here."""

import importlib
import json
from itertools import islice

from conftest import perfbench_module


def test_every_traced_layer_resolves():
    layers = perfbench_module("spans").LAYERS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"plumbcalc.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"plumbcalc.{layer}.{name}"


def test_benchmark_calls_run_under_the_tracer(tmp_path, capsys):
    # the package exports functions named like its census and classify
    # modules, so the modules come from importlib, as run.py takes them
    census, classify, cli, graph, laufer, surgery = (
        importlib.import_module(f"plumbcalc.{name}")
        for name in ("census", "classify", "cli", "graph", "laufer", "surgery")
    )
    trees = perfbench_module("inputs").certify_inputs(0, count=3)
    tracer = perfbench_module("spans").Tracer()
    tracer.install()
    try:
        # census6: records streamed through report_to_json
        reports = [
            classify.report_to_json(rec.report)
            for rec in islice(census.census(6, -5, jobs=1), 50)
        ]
        # classify-large in-process, cli-cold's three commands
        path, cert = tmp_path / "g.graph", tmp_path / "c.json"
        path.write_text(trees[0].text(), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["classify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rational"] is False
        assert cli.main(["certificate", str(path), "--out", str(cert)]) == 0
        assert capsys.readouterr().out == f"wrote certificate to {cert}\n"
        assert cli.main(["check-certificate", str(cert)]) == 0
        assert capsys.readouterr().out == "certificate OK\n"
        # certify: build, serialize, parse and check a certificate
        for tree in trees:
            g = graph.PlumbingGraph(tree.weight_map(), tree.edge_names())
            text = json.dumps(surgery.certificate_to_json(surgery.lo_certificate(g)))
            parsed = surgery.certificate_from_json(json.loads(text))
            assert surgery.check_certificate(parsed).ok
            # the hook of is_rational reads the verdict's z_min
            assert laufer.is_rational(g).z_min.keys() == set(g.vertices)
    finally:
        tracer.uninstall()
    assert len(reports) == 50 and all(type(r["rational"]) is bool for r in reports)
    counters = tracer.counters
    assert counters["census.census_graphs.yielded"] >= 50
    assert counters["laufer.steps"] > 0 and counters["surgery.cert.nodes"] >= 4
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["cli.main"] == 3 and calls["surgery.check_certificate"] >= 4
    assert calls["laufer.is_rational"] > 0 and calls["classify.report_to_json"] >= 51
