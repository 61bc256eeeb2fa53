"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import random

import checker
import run
import workloads
from tracer import Tracer

cli = run.import_cli()


def spec_bytes(directory, requests) -> dict[str, bytes]:
    out = {}
    for i, req in enumerate(requests):
        workloads.write_files(req, os.path.join(directory, str(i)))
        for name in req.files:
            with open(os.path.join(directory, str(i), name), "rb") as fh:
                out[f"{i}/{name}"] = fh.read()
    return out


def small_tree(fmt="json", oracle=False) -> workloads.Request:
    tail = ("report", "--format", fmt) + (("--oracle",) if oracle else ())
    return workloads.tree_request("tree", random.Random(7), tail, 4, 1, 1)


def test_same_seed_gives_identical_spec_files(tmp_path):
    fixtures = run.read_fixtures()

    def generate(seed, where):
        reqs = workloads.corpus_small(seed, fixtures)
        reqs += [workloads.sym_d40(seed, i) for i in range(2)]
        reqs += [workloads.oracle_d24(seed, i) for i in range(2)]
        return spec_bytes(tmp_path / where, reqs)

    first = generate(5, "a")
    assert first == generate(5, "b")
    assert first != generate(6, "c")


def test_decorations_are_zero_diagonal_unimodular_models():
    for req in (workloads.sym_d40(3, 0), workloads.oracle_d24(3, 0)):
        a = req.facts["decorations"][0]
        assert len(a) == 8 * req.facts["p"] + 2 * req.facts["q"]
        assert all(a[i][i] == 0 for i in range(len(a)))
        assert all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(len(a)))


def test_checker_accepts_a_report_and_rejects_corrupted_ones(tmp_path):
    req = small_tree(oracle=True)
    argv = workloads.write_files(req, str(tmp_path))
    code, stdout, _ = run.Client(cli, 10.0).call(argv)
    assert checker.check(req.facts, code, stdout, argv) is None

    doc = json.loads(stdout)
    corruptions = [
        lambda d: d.update(sigma=d["sigma"] - 8),
        lambda d: d["links"][0]["linking_matrix"][1].__setitem__(1, d["links"][0]["linking_matrix"][1][1] + 1),
        lambda d: d.update(kernel_basis=[["1"] * (len(d["kernel_basis"][0]) - 1) + ["2"]]),
        lambda d: d.update(chi=d["chi"] + 1),
        lambda d: d["links"][0].update(classification={"p": 0, "q": 5}),
        lambda d: d["oracle"].update(all_match=False),
        lambda d: d.pop("inertia"),
    ]
    for corrupt in corruptions:
        bad = json.loads(stdout)
        corrupt(bad)
        assert checker.check(req.facts, 0, json.dumps(bad), argv) is not None
    assert checker.check(req.facts, 1, stdout, argv) is not None
    assert checker.check(dict(req.facts, exit=1), 0, stdout, argv) is not None


def test_checker_rejects_a_corrupted_text_report(tmp_path):
    req = small_tree(fmt="text")
    argv = workloads.write_files(req, str(tmp_path))
    code, stdout, _ = run.Client(cli, 10.0).call(argv)
    assert checker.check(req.facts, code, stdout, argv) is None
    assert checker.check(req.facts, code, stdout.replace("chi = ", "chi = 1"), argv) is not None


def cycle_outputs(tmp_path, tracer=None):
    client = run.Client(cli, 10.0, tracer)
    outputs = []
    for i, req in enumerate(workloads.corpus_small(11, run.read_fixtures())):
        argv = workloads.write_files(req, str(tmp_path / str(i)))
        if tracer is not None:
            tracer.begin_request(i)
        outputs.append(client.call(argv)[:2])
        if tracer is not None:
            tracer.end_request(completed=True)
    return outputs


def traced(function, *args):
    tracer = Tracer()
    tracer.install()
    try:
        return function(*args, tracer), tracer
    finally:
        tracer.uninstall()


def test_traced_and_plain_runs_print_identical_stdout(tmp_path):
    plain = cycle_outputs(tmp_path)
    with_spans, tracer = traced(cycle_outputs, tmp_path)
    assert with_spans == plain
    assert tracer.spans
    assert cli.derived_linking_matrix.__module__ == "hopfcalc.hopflink"
    assert not hasattr(cli.derived_linking_matrix, "__wrapped__")


def test_calls_per_request_repeat_exactly(tmp_path):
    def sym_calls(tracer):
        req = workloads.sym_d40(1, 0)
        client = run.Client(cli, 60.0, tracer)
        client.run(req, workloads.write_files(req, str(tmp_path / "sym")), 0)
        return {k: v["value"] for k, v in tracer.metrics().items() if k.endswith(".calls")}

    first, _ = traced(sym_calls)
    second, _ = traced(sym_calls)
    assert first == second
    assert first["exactlinalg.charpoly.calls"] == 3
    assert first["graphmodel.validate_graph.calls"] == 16

    _, corpus_a = traced(cycle_outputs, tmp_path)
    _, corpus_b = traced(cycle_outputs, tmp_path)
    assert corpus_a.metrics() != {}
    assert {k: v for k, v in corpus_a.metrics().items() if k.endswith(".calls")} == \
        {k: v for k, v in corpus_b.metrics().items() if k.endswith(".calls")}


def test_deadline_stops_a_request_and_marks_the_innermost_span(tmp_path):
    req = workloads.sym_d40(1, 0)
    argv = workloads.write_files(req, str(tmp_path))

    def late(tracer):
        client = run.Client(cli, 0.05, tracer)
        return client.run(req, argv, 0), client.late

    ((passed, elapsed), late_count), tracer = traced(late)
    assert not passed and elapsed < 1.0 and late_count == 1
    aborted = sum(v["value"] for k, v in tracer.metrics().items() if k.endswith(".aborted"))
    assert aborted == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    ranked = [float(i) for i in range(100)]
    assert run.tail(ranked) == (90.0, 89.0)
    results = [(True, 0.1)] * 30 + [(False, 0.01)] * 10
    assert run.latency_ranks(results, 1.0)[-10:] == [1.01] * 10


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.BOUND_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = {name: m["unit"] for name, m in Tracer().metrics().items()}
    assert per_layer == dict(traced, **{"trace.overhead_s": "s"})


def test_runs_with_the_same_seed_attempt_the_same_requests(capsys):
    assert run.request_count("corpus-small", 1.0, 69) % 69 == 0
    assert run.request_count("sym-d40", 1.0, 1) == 1
    results = []
    for _ in range(2):
        run.main(["--workload", "corpus-small", "--seed", "3", "--seconds", "0.2"])
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        results.append((line["correct"], line["attempted"], line["failed"]))
    assert results[0] == results[1]
    assert results[0][0] and results[0][1] % len(workloads.corpus_small(3, run.read_fixtures())) == 0
