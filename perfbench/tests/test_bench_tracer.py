"""Spans, self times and absent metrics of the traced run."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402
import hyperdisc.cli  # noqa: E402
import hyperdisc.identification as identification  # noqa: E402
from hyperdisc.fileio import model_from_dict  # noqa: E402


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0,
            "counts": None}


def test_self_time_subtracts_direct_children():
    spans = [_span("op", 0.0, 10.0, None),
             _span("identification.identify_model", 1.0, 9.0, 0),
             _span("model.solve_backward", 2.0, 4.0, 1),
             _span("identification.assemble_system", 5.0, 8.0, 1)]
    assert tracer.self_times(spans) == [2.0, 3.0, 2.0, 3.0]


def test_traced_call_nests_and_missing_name_leaves_metric_out(monkeypatch, tmp_path):
    monkeypatch.delattr(identification, "check_model")
    monkeypatch.delattr(hyperdisc.cli, "check_model")
    original = identification.identify_model
    t = tracer.Tracer()
    assert "hyperdisc.identification.check_model" in t.missing

    spec = model_from_dict(inputs.sweep_model(0, (3, 2, 0), 0)[0])
    with t.recording(0):
        identification.identify_model(spec, mode="constrained_ls")
    assert identification.identify_model is original

    path = tmp_path / "spans.jsonl"
    t.write(path)
    spans = tracer.read_spans(path)
    names = [s["name"] for s in spans]
    assert names[:2] == ["op", "identification.identify_model"]
    assert spans[names.index("model.solve_backward")]["parent"] == 1

    metrics = tracer.layer_metrics(spans, [1.0], t.wrapped)
    assert "identification.check_model_ms" not in metrics
    assert metrics["model.solve_backward_calls"]["value"] == 1
    assert metrics["identification.identify_model_ms"]["value"] > 0
    assert metrics["estimation.fit_mle_s"]["value"] == 0.0
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in tracer.LAYERS)
    assert 90.0 < shares <= 100.0
