import copy
import json
import os
import random
import re
import signal
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopfcalc
from hopfcalc import cli, exactlinalg, graphmodel, hopflink, invariants
from hopfcalc.cli import (
    SpecFileError,
    build_report,
    main,
    parse_spec,
    parse_spec_data,
)
from hopfcalc.fixtures import fixture_names, fixture_path
from hopfcalc.forms import BilinearForm, zero_diagonal_model
from hopfcalc.sampling import random_congruence, random_zero_diagonal_form, skew_seed

TREE = fixture_path("tree_h.json")
TREE_E8H = fixture_path("tree_e8h.json")
PRODUCTS = fixture_path("products.json")
SRC = os.path.dirname(os.path.dirname(hopfcalc.__file__))


def fresh_python(*args, timeout=None, text=True, **env):
    """Run ``python -X dev -W error *args`` in a fresh interpreter that imports hopfcalc from ``SRC``.

    Development mode with warnings as errors: the shipped entry points must run clean under it.  ``env``
    adds environment variables, and ``timeout`` bounds the wall time in seconds.
    """
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args],
                          env=dict(os.environ, PYTHONPATH=SRC, **env), capture_output=True, text=text,
                          timeout=timeout, check=False)


def one_vertex_tree(matrix, n):
    """Spec document: one black vertex decorated by ``matrix``, a disk on every component."""
    disk = {"color": "white", "fiber": {"betti": [1] + [0] * n, "boundary_components": 1}}
    comps = matrix.rows + 1
    return {
        "n": n,
        "k": 0,
        "graphs": [
            {
                "vertices": [{"color": "black", "matrix": matrix.to_rows()}] + [disk] * comps,
                "edges": [{"u": 0, "v": c + 1, "u_comp": c, "v_comp": 0} for c in range(comps)],
            }
        ],
    }


def counted_calls(monkeypatch, targets):
    """Count the calls of each (module or class, name) in ``targets``, in every hopfcalc namespace that binds it."""
    calls = Counter()
    for home, func in targets:
        original = getattr(home, func)

        def counted(*args, _original=original, _func=func):
            calls[_func] += 1
            return _original(*args)

        monkeypatch.setattr(home, func, counted)
        # modules import these by name, so patch every other namespace that binds one
        for key, module in list(sys.modules.items()):
            if key == "hopfcalc" or key.startswith("hopfcalc."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return calls


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


GRAPH_FIXTURES = [name for name in fixture_names() if "graphs" in load(fixture_path(name))]
# the X A X^T = D checks one report of each graph fixture runs: one per singular cup form that is eliminated
CONGRUENCE_CERTIFICATES = {
    "pair_allblack.json": 1, "proj_blackwhite.json": 0, "proj_sig.json": 0, "tree_e8h.json": 0, "tree_h.json": 0,
}
# the cup forms read from their own congruence: the arcs of the pair's three parallel edges close a cycle
CUP_FORM_FALLBACK = {"pair_allblack.json"}


J_ROWS = [[0, 1], [-1, 0]]
JJ_ROWS = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def white(betti):
    return {"color": "white", "fiber": {"betti": betti, "boundary_components": 1}}


WHITE_DISK3 = white([1, 0, 0, 0])


def tree_with_whites(whites):
    """Spec document at n = 3: one black J vertex, the given white vertex on each of its three components."""
    edges = [{"u": 0, "v": c + 1, "u_comp": c, "v_comp": 0} for c in range(3)]
    return {"n": 3, "k": 0, "graphs": [{"vertices": [{"color": "black", "matrix": J_ROWS}, *whites], "edges": edges}]}


def black_pair(n):
    """Spec document: two black [[0, 1], [1, 0]] vertices joined by three edges."""
    black = {"color": "black", "matrix": [[0, 1], [1, 0]]}
    edges = [{"u": 0, "v": 1, "u_comp": c, "v_comp": c} for c in range(3)]
    return {"n": n, "k": 0, "graphs": [{"vertices": [black, black], "edges": edges}]}


# n = 4: one black H vertex, a disk on component 0 and a cylinder looping back to components 1 and 2;
# s = 1 is odd, yet chi = 2 is even and sigma = 0, so nothing obstructs a fibration over S^4
CYLINDER_LOOP = {"n": 4, "k": 0, "assume_cobounding": True, "graphs": [{"vertices": [
    {"color": "black", "matrix": [[0, 1], [1, 0]]},
    {"color": "white", "fiber": {"betti": [1, 0, 0, 0, 0], "boundary_components": 1}},
    {"color": "white", "fiber": {"betti": [1, 0, 0, 1, 0], "boundary_components": 2}}], "edges": [
    {"u": 0, "v": 1, "u_comp": 0, "v_comp": 0},
    {"u": 0, "v": 2, "u_comp": 1, "v_comp": 0},
    {"u": 0, "v": 2, "u_comp": 2, "v_comp": 1}]}]}


def cylinder_loop(matrix):
    """``CYLINDER_LOOP`` decorated by ``matrix``, a disk on each component past the first three."""
    doc = copy.deepcopy(CYLINDER_LOOP)
    graph = doc["graphs"][0]
    graph["vertices"][0]["matrix"] = matrix.to_rows()
    for c in range(3, matrix.rows + 1):
        graph["vertices"].append(graph["vertices"][1])
        graph["edges"].append({"u": 0, "v": len(graph["vertices"]) - 1, "u_comp": c, "v_comp": 0})
    return doc


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
OVERSIZED = "9" * (DIGIT_LIMIT + 700)  # an integer literal past the limit
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="interpreter has no integer digit limit")


def _out_of_cpu_time(signum, frame):
    raise TimeoutError("over the CPU-time budget")


class TestParse:
    def test_fixture_corpus_parses(self):
        for name in fixture_names():
            parse_spec(fixture_path(name))

    def test_tree_fixture(self):
        spec = parse_spec(TREE)
        assert (*graphmodel.family_dimensions(spec.graphs), spec.data["theta"], spec.assume_cobounding) == (3, 0, 1, True)
        assert len(spec.graphs) == 1
        assert len(spec.graphs[0].edges) == 3

    def test_deleted_edge_names_vertex(self, tmp_path):
        data = load(TREE)
        del data["graphs"][0]["edges"][-1]
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFileError) as err:
            parse_spec(str(path))
        assert "vertices[0]" in str(err.value)
        assert "degree" in str(err.value)

    def test_nonzero_diagonal_diagnostic(self, tmp_path):
        data = load(TREE)
        data["graphs"][0]["vertices"][0]["matrix"] = [[1, 1], [-1, 0]]
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFileError) as err:
            parse_spec(str(path))
        assert "matrix" in str(err.value)

    @pytest.mark.parametrize("entry, shown", [(1.5, "1.5"), (True, "True"), ("1", "'1'")])
    def test_bad_matrix_entry_names_its_locus(self, entry, shown):
        data = load(TREE)
        data["graphs"][0]["vertices"][0]["matrix"][1][0] = entry
        with pytest.raises(SpecFileError) as err:
            parse_spec_data(data)
        assert str(err.value) == f"<data>.graphs[0].vertices[0].matrix[1][0]: expected an integer, got {shown}"

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0, 1], [1]], "ragged rows"),
            ([[0, 1], [1, 0, True]], "[1][2]: expected an integer, got True"),  # the entry before the shape
            ([[0, 1], []], "ragged rows"),
        ],
    )
    def test_ragged_matrix(self, matrix, message):
        data = load(TREE)
        data["graphs"][0]["vertices"][0]["matrix"] = matrix
        with pytest.raises(SpecFileError) as err:
            parse_spec_data(data)
        assert str(err.value).startswith("<data>.graphs[0].vertices[0].matrix")
        assert str(err.value).endswith(message)

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecFileError) as err:
            parse_spec_data({"n": 3, "k": 0, "graphs": [], "extra": 1})
        assert "extra" in str(err.value)

    def test_unknown_edge_field_rejected(self):
        data = load(TREE)
        data["graphs"][0]["edges"][0]["weight"] = 2
        with pytest.raises(SpecFileError):
            parse_spec_data(data)

    def test_graphs_or_factors_exclusive(self):
        with pytest.raises(SpecFileError):
            parse_spec_data({"factors": [{"kind": "S4"}], "graphs": []})
        with pytest.raises(SpecFileError):
            parse_spec_data({})

    def test_k_range(self):
        data = load(TREE)
        data["k"] = 2  # n - k < 2
        with pytest.raises(SpecFileError):
            parse_spec_data(data)

    def test_malformed_json_has_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,\n  "k": }')
        with pytest.raises(SpecFileError) as err:
            parse_spec(str(path))
        assert ":2:" in str(err.value)

    @needs_digit_limit
    def test_oversized_integer_names_file(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(load(TREE)).replace('"n": 3', '"n": ' + OVERSIZED, 1))
        with pytest.raises(SpecFileError) as err:
            parse_spec(str(path))
        assert str(err.value).startswith(f"{path}.n: Exceeds the limit")
        assert main(["report", str(path)]) == 1
        assert f"error: {path}.n: " in capsys.readouterr().err

    @needs_digit_limit
    @pytest.mark.parametrize("command", ["report", "oracle"])
    def test_oversized_matrix_entry_names_field(self, tmp_path, capsys, command):
        data = load(TREE)
        data["graphs"][0]["vertices"][0]["matrix"][0][1] = "X"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data).replace('"X"', "-" + OVERSIZED))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}.graphs[0].vertices[0].matrix[0][1]: Exceeds the limit")
        assert f"value has {len(OVERSIZED)} digits" in err

    @needs_digit_limit
    @pytest.mark.parametrize("argv", [["check-link", "--n", "4"], ["classify"]])
    def test_oversized_matrix_file_entry_names_field(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.json"
        path.write_text(f"[[0, {OVERSIZED}], [1, 0]]")
        assert main([*argv, "--matrix", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}[0][1]: Exceeds the limit")

    def test_undecodable_bytes_name_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": "\xe9"}')
        with pytest.raises(SpecFileError) as err:
            parse_spec(str(path))
        assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode")

    def test_twist_annotation_round_trips(self):
        data = load(TREE)
        data["graphs"][0]["edges"][0]["twist"] = "half-turn"
        spec = parse_spec_data(data)
        assert spec.graphs[0].edges[0].twist == "half-turn"
        assert spec.data["graphs"][0]["edges"][0]["twist"] == "half-turn"

    @pytest.mark.parametrize("path", [TREE, PRODUCTS])
    def test_data_is_a_copy_of_the_input(self, path):
        data = load(path)
        spec = parse_spec_data(data)
        before = json.dumps(spec.data)
        data["graphs" if "graphs" in data else "factors"][0].clear()
        data["n"] = 99
        assert json.dumps(spec.data) == before


def report_stdout(argv, capsys):
    """stdout of a ``report`` run that exits 0."""
    assert main(["report", *argv]) == 0
    return capsys.readouterr().out


json_scalars = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=6),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(st.integers(-(1 << 40), 1 << 40), max_size=5),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestEmit:
    @settings(deadline=None, max_examples=300)
    @given(json_documents)
    def test_json_renderer_matches_the_indented_encoder(self, doc):
        assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    def test_deterministic_bytes(self, capsys):
        for name in fixture_names():
            for fmt in ("text", "json"):
                argv = [fixture_path(name), "--format", fmt]
                assert report_stdout(argv, capsys).encode() == report_stdout(argv, capsys).encode()

    def test_round_trip_normalized_spec(self, capsys):
        for name in fixture_names():
            doc = json.loads(report_stdout([fixture_path(name), "--format", "json"], capsys))
            assert parse_spec_data(doc["spec"]) == parse_spec(fixture_path(name))

    def test_tree_report_values(self):
        doc = build_report(parse_spec(TREE))
        assert doc["chi"] == -2
        assert doc["sigma"] == 0
        assert doc["kernel_dim"] == 1
        assert doc["phi"] == {"lower": 1, "upper": 1}
        assert doc["homology_ranks"]["3"] == 4
        assert doc["cup_form"]["matrix"] == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
        assert doc["links"][0]["linking_matrix"] == doc["cup_form"]["matrix"]

    def test_e8h_report_values(self):
        doc = build_report(parse_spec(TREE_E8H))
        assert doc["chi"] == 14
        assert doc["sigma"] == 8
        assert doc["links"][0]["classification"] == {"p": 1, "q": 1}

    def test_products_report(self):
        doc = build_report(parse_spec(PRODUCTS))
        assert doc["chi"] == 24
        assert doc["phi"] == {"lower": 1, "upper": 24}

    def test_oracle_section(self):
        doc = build_report(parse_spec(TREE), oracle=True)
        assert doc["oracle"]["all_match"]
        assert len(doc["oracle"]["checks"]) == 3  # one per component

    def test_chi_sigma_parity_on_dimension_divisible_by_four(self):
        # glued dimension 2n with n even: chi and sigma share parity
        for name in ("tree_e8h.json", "proj_sig.json"):
            doc = build_report(parse_spec(fixture_path(name)))
            assert (doc["chi"] - doc["sigma"]) % 2 == 0


class TestObstruction:
    """The lower bound on critical points reads chi and sigma, never the parity of the black count."""

    def test_cylinder_loop_has_no_certified_obstruction(self, tmp_path, capsys):
        path = tmp_path / "cylinder_loop.json"
        path.write_text(json.dumps(CYLINDER_LOOP))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "black vertices s = 1" in out
        assert "  critical points over S^4: between 0 and 1\n" in out
        assert "  note: no obstruction certified; 0 is the unconditional lower bound\n" in out
        assert "  verdict: chi = 2 is even: no Euler-characteristic obstruction over S^4\n" in out
        assert "odd number of black vertices" not in out and "parity check" not in out
        assert main(["report", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["chi"], doc["sigma"], doc["phi"]) == (2, 0, {"lower": 0, "upper": 1})

    def test_signature_certifies_the_same_shape(self):
        doc = build_report(parse_spec_data(cylinder_loop(zero_diagonal_model(1, 1).matrix)))
        assert doc["chi"] % 2 == 0 and doc["sigma"] != 0
        assert doc["phi"] == {"lower": 1, "upper": 1}
        assert f"nonzero signature {doc['sigma']} obstructs fibering over any sphere" in doc["notes"]


class TestMain:
    def test_report_exit_zero(self, capsys):
        assert main(["report", TREE]) == 0
        out = capsys.readouterr().out
        assert "chi = -2" in out

    def test_json_format(self, capsys):
        assert main(["report", TREE, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi"] == -2

    def test_invalid_spec_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "k": 0, "graphs": [{"vertices": [], "edges": []}]}')
        assert main(["report", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["report", "/nonexistent/spec.json"]) == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["report"]) == 1

    def test_oracle_subcommand(self, capsys):
        for name in fixture_names():
            assert main(["oracle", fixture_path(name)]) == 0

    def test_check_link(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0, 1], [-1, 0]]")
        assert main(["check-link", "--matrix", str(path), "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "directly fibered = true" in out

    def test_check_link_k_bound(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0, 1], [1, 0]]")
        assert main(["check-link", "--matrix", str(path), "--n", "4", "--k", "3"]) == 1
        assert "--k: need 0 <= k <= n - 2, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("n, code", [(10_000, 0), (10_000_000, 1)])
    def test_n_bound_within_cpu_budget(self, n, code, tmp_path, capsys):
        # Betti tuples of length n + 1 took 31 s of CPU time and 399 MB at n = 10**7
        spec, matrix = tmp_path / "pair.json", tmp_path / "m.json"
        spec.write_text(json.dumps(black_pair(n)))
        matrix.write_text("[[0, 1], [1, 0]]")
        previous = signal.signal(signal.SIGPROF, _out_of_cpu_time)
        signal.setitimer(signal.ITIMER_PROF, 1)
        try:
            assert main(["report", str(spec)]) == code
            assert main(["check-link", "--matrix", str(matrix), "--n", str(n)]) == code
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        if code:
            assert capsys.readouterr().err == (f"error: {spec}.n: n <= 10000 required, got {n}\n"
                                               f"error: --n: n <= 10000 required, got {n}\n")

    def test_check_link_wrong_symmetry(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0, 1], [1, 0]]")  # symmetric, but n = 3 needs skew
        assert main(["check-link", "--matrix", str(path), "--n", "3"]) == 1

    def test_classify(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        rows = [[0, 1], [1, 0]]
        path.write_text(json.dumps(rows))
        assert main(["classify", "--matrix", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == {"p": 0, "q": 1}

    def test_selftest(self, capsys):
        assert main(["selftest", "--seed", "3", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 4

    def test_non_unimodular_decoration_exit_one(self, tmp_path, capsys):
        disk = {"color": "white", "fiber": {"betti": [1, 0, 0, 0, 0], "boundary_components": 1}}
        data = {
            "n": 4,
            "k": 0,
            "graphs": [
                {
                    "vertices": [{"color": "black", "matrix": [[0, 2], [2, 0]]}] + [disk] * 3,
                    "edges": [{"u": 0, "v": c + 1, "u_comp": c, "v_comp": 0} for c in range(3)],
                }
            ],
        }
        path = tmp_path / "det4.json"
        path.write_text(json.dumps(data))
        for command in ("oracle", "report"):
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert "graphs[0].vertices[0].matrix: determinant -4" in err
            assert "unimodular" in err

    def test_two_edge_projected_spec_exit_one(self, tmp_path, capsys):
        # black - cylinder - black is a valid graph, but no projected shape has two edges
        black = {"color": "black", "matrix": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]}
        cylinder = {"color": "white", "fiber": {"betti": [1, 0, 0, 0, 0, 1, 0], "boundary_components": 2}}
        edges = [{"u": 0, "v": 1, "u_comp": 0, "v_comp": 0}, {"u": 2, "v": 1, "u_comp": 0, "v_comp": 1}]
        path = tmp_path / "two_edges.json"
        path.write_text(json.dumps({"n": 5, "k": 1, "graphs": [{"vertices": [black, cylinder, black], "edges": edges}]}))
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: projected graphs support exactly one edge\n"

    @pytest.mark.parametrize("data, message", [
        pytest.param(
            {"n": 5, "k": 1, "graphs": [{"vertices": [{"color": "black", "matrix": J_ROWS},
                                                      {"color": "black", "matrix": JJ_ROWS}],
                                         "edges": [{"u": 0, "v": 1, "u_comp": 0, "v_comp": 0}]}]},
            "the two projected decorations must have equal size", id="unequal-projected-pair"),
        pytest.param(
            tree_with_whites([WHITE_DISK3, WHITE_DISK3, white([1, 2, 0, 0])]),
            "non-trivial white decoration: glued Betti numbers are not determined by Betti data alone",
            id="non-trivial-white"),
        pytest.param(
            {"n": 3, "k": 0, "graphs": [
                tree_with_whites([WHITE_DISK3] * 3)["graphs"][0],
                {"vertices": [{"color": "black", "matrix": J_ROWS}] * 2,
                 "edges": [{"u": 0, "v": 1, "u_comp": c, "v_comp": c} for c in range(3)]}]},
            "graphs have mismatched loop counts [0, 2]; fibers cannot agree", id="mismatched-loops"),
        pytest.param(
            tree_with_whites([white([1, 0]), WHITE_DISK3, WHITE_DISK3]),
            "white fiber at vertex 1 has dimension 1, expected 3", id="white-dimension"),
        pytest.param(
            {"n": 3, "k": 0, "graphs": [{
                "vertices": [{"color": "black", "matrix": J_ROWS}, *[WHITE_DISK3] * 3] * 2,
                "edges": [{"u": u, "v": u + c + 1, "u_comp": c, "v_comp": 0} for u in (0, 4) for c in range(3)]}]},
            "fiber assembly needs a connected graph", id="disconnected"),
        pytest.param(
            {"n": 5, "k": 1, "graphs": [{"vertices": [{"color": "black", "matrix": JJ_ROWS}, white([1, 5, 0, 0, 0, 0, 0])],
                                         "edges": [{"u": 0, "v": 1, "u_comp": 0, "v_comp": 0}]}]},
            "white decoration does not match the trivial piece capping the projected link", id="filler-mismatch"),
    ])
    def test_shape_error_names_spec_file(self, data, message, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    def test_deleting_any_edge_names_a_vertex(self, name, tmp_path, capsys):
        data = load(fixture_path(name))
        path = tmp_path / name
        for g, graph in enumerate(data["graphs"]):
            for e in range(len(graph["edges"])):
                mutated = json.loads(json.dumps(data))
                del mutated["graphs"][g]["edges"][e]
                path.write_text(json.dumps(mutated))
                assert main(["report", str(path)]) == 1, (g, e)
                err = capsys.readouterr().err
                assert re.fullmatch(rf"error: {re.escape(str(path))}\.graphs\[{g}\]\.vertices\[\d+\]: .+\n", err), err

    def test_null_twist_exit_one(self, tmp_path, capsys):
        data = load(TREE)
        data["graphs"][0]["edges"][0]["twist"] = None
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 1
        assert "graphs[0].edges[0].twist: expected a string" in capsys.readouterr().err

    def test_negative_connsum_names_factor(self, tmp_path, capsys):
        path = tmp_path / "factors.json"
        path.write_text(json.dumps({"factors": [{"kind": "S4"}, {"kind": "connsum", "r": -1}]}))
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}.factors[1]: connected-sum multiplicity must be nonnegative\n"
        )

    def test_missing_field_message_is_deterministic(self, tmp_path):
        data = load(TREE)
        del data["graphs"][0]["edges"][0]["u"], data["graphs"][0]["edges"][0]["v"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        errors = set()
        for seed in range(6):  # set iteration order of str follows the hash seed
            proc = fresh_python("-m", "hopfcalc.cli", "report", str(path), PYTHONHASHSEED=str(seed))
            assert proc.returncode == 1
            errors.add(proc.stderr)
        assert len(errors) == 1 and "edges[0]: missing field 'u'" in errors.pop()

    def test_sampling_is_loaded_by_selftest_only(self):
        # a fresh interpreter, since this process has imported every module
        proc = fresh_python("-c", "import sys, hopfcalc.cli; print('hopfcalc.sampling' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_import_loads_only_the_stdlib_it_names(self):
        # what a fresh interpreter loads to import hopfcalc.cli: hopfcalc's modules, __future__ (each one
        # starts with ``from __future__ import annotations``) and what the stdlib modules it imports load;
        # struct is named because not every site loads it at start-up; the value classes are written out
        # and the annotations name only builtins and collections.abc, so neither dataclasses, the inspect
        # it imports, nor typing is loaded, which a run without the site module (-S) shows where a site
        # file loads typing itself; every run is in development mode with warnings as errors, so defining
        # the value classes must raise no warning either
        loaded = {}
        for flags, imports in (((), "hopfcalc.cli"), ((), "__future__, argparse, fractions, json, struct"),
                               (("-S",), "hopfcalc.cli")):
            proc = fresh_python(*flags, "-c", f"import sys; import {imports}; print(*sorted(sys.modules))")
            assert (proc.returncode, proc.stderr) == (0, "")
            loaded[flags, imports] = set(proc.stdout.split())
        cli_modules, stdlib, site_free = loaded.values()
        assert {name for name in cli_modules - stdlib if name.partition(".")[0] != "hopfcalc"} == set()
        assert {"hopfcalc.cli", "hopfcalc.exactlinalg"} <= cli_modules
        assert {"dataclasses", "inspect"}.isdisjoint(cli_modules)
        assert "hopfcalc.cli" in site_free and {"dataclasses", "inspect", "typing"}.isdisjoint(site_free)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_decoration_linking_matrix_matches_oracle(self, seed, tmp_path, capsys):
        # the linking matrix comes from the decoration's inverse; the oracle certifies each column against
        # its filling presentation
        epsilon, n = (1, 4) if seed % 2 == 0 else (-1, 3)
        matrix = random_zero_diagonal_form(random.Random(seed), epsilon).matrix
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(one_vertex_tree(matrix, n)))
        assert main(["report", str(path), "--oracle", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["all_match"] is True
        assert all(sum(row) == 0 for row in doc["links"][0]["linking_matrix"])

    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    def test_each_fact_computed_once(self, name, monkeypatch, capsys):
        spec = parse_spec(fixture_path(name))
        blacks = sum(len(graphmodel.black_vertices(graph)) for graph in spec.graphs)
        projected = sum(1 for graph in spec.graphs if graph.dimensions[1] > 0)
        calls = counted_calls(monkeypatch, (
            (graphmodel, "graph_counts"), (graphmodel, "_connected_components"),
            (graphmodel, "validate_graph"), (graphmodel, "black_vertices"), (graphmodel, "projected_pair"),
            (hopflink, "derived_linking_matrix"), (hopflink, "presentation_oracle"),
            (exactlinalg, "_symmetric_bareiss"), (exactlinalg, "_gauss_jordan"),
            (exactlinalg, "congruence_apply"), (invariants, "detect_canonical_family")))
        counts = {}
        for command in ("report", "report --oracle", "oracle"):
            calls.clear()
            assert main([*command.split(), fixture_path(name)]) == 0
            counts[command] = Counter(calls)
        graphs = len(spec.graphs)
        # validate_graph: once per graph, when it is built; black_vertices: the link and oracle sections;
        # one elimination per decoration, and one of the cup form only where its facts do not follow from
        # the decorations; X A X^T = D is checked only on a singular form that is eliminated, since the
        # checked inverse proves every unimodular one
        congruences = CONGRUENCE_CERTIFICATES[name]
        assert counts["report --oracle"] == Counter({
            "graph_counts": graphs, "_connected_components": graphs,
            "detect_canonical_family": graphs, "validate_graph": graphs,
            "black_vertices": 2 * graphs, "projected_pair": projected,
            "derived_linking_matrix": blacks, "presentation_oracle": blacks,
            "_symmetric_bareiss": blacks + (name in CUP_FORM_FALLBACK), "congruence_apply": congruences})
        assert counts["report"]["congruence_apply"] == congruences
        assert counts["report"]["validate_graph"] == counts["oracle"]["validate_graph"] == graphs
        # the oracle reads the determinant and inverse of the parse's elimination, with no X A X^T = D
        assert counts["oracle"]["_symmetric_bareiss"] == blacks and counts["oracle"]["congruence_apply"] == 0

    @pytest.mark.parametrize("rows, n", [(zero_diagonal_model(1, 1).matrix.to_rows(), 4), (JJ_ROWS, 3)])
    def test_check_link_and_classify_eliminate_once(self, rows, n, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        calls = counted_calls(monkeypatch, ((exactlinalg, "_symmetric_bareiss"), (exactlinalg, "_gauss_jordan")))
        for argv in (["check-link", "--matrix", str(path), "--n", str(n)], ["classify", "--matrix", str(path)]):
            calls.clear()
            assert main(argv) == 0
            assert calls == Counter({"_symmetric_bareiss": 1})

    def test_oracle_json_on_product_spec(self, capsys):
        assert main(["oracle", PRODUCTS, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"all_match": True, "checks": []}

    def test_internal_fault_exit_two(self, monkeypatch, capsys):
        # a white piece's chi that disagrees with the shape fails the fiber's inclusion-exclusion
        monkeypatch.setattr(hopflink.FiberDescriptor, "euler", property(lambda self: 99))
        assert main(["report", TREE]) == 2
        assert "fiber self-check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["tree_h.json", "tree_e8h.json", "proj_blackwhite.json"])
    def test_homology_ranks_disagreeing_with_chi_exit_two(self, name, monkeypatch, capsys):
        ranks = invariants.canonical_homology_ranks

        def off_by_one(family, n, k, d):
            table = ranks(family, n, k, d)
            return {**table, n: table[n] + 1}

        monkeypatch.setattr(invariants, "canonical_homology_ranks", off_by_one)
        assert main(["report", fixture_path(name)]) == 2
        assert "internal invariant violation: chi = " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["tree_e8h.json", "proj_sig.json"])
    def test_signature_disagreeing_with_chi_parity_exit_two(self, name, monkeypatch, capsys):
        # both are canonical even families with n = 4: closed 8-manifolds, where sigma = chi (mod 2)
        sigma = invariants.CupFormAnalysis.sigma
        monkeypatch.setattr(invariants.CupFormAnalysis, "sigma", property(lambda self: sigma.fget(self) + 1))
        assert main(["report", fixture_path(name)]) == 2
        assert "internal invariant violation: sigma = " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["oracle"], ["report", "--oracle"]], ids=["oracle", "report-oracle"])
    def test_oracle_mismatch_exit_two(self, argv, monkeypatch, capsys):
        import hopfcalc.cli as cli_mod

        def broken(a, lk):
            return (False,) * lk.rows

        monkeypatch.setattr(cli_mod, "presentation_oracle", broken)
        assert main([argv[0], TREE, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert "internal invariant violation" in err
        # the output is still written, with the failed checks, before the gate exits 2
        if argv[0] == "report":
            assert out.startswith("graph report\n") and "  oracle: all_match = false\n" in out
        else:
            assert out.endswith("match = false\nall_match = false\n")

    def test_value_error_escaping_the_pipeline_exit_two(self, monkeypatch, capsys):
        import hopfcalc.cli as cli_mod

        def broken(graphs, assume_cobounding):
            raise ValueError("escaped after parsing")

        monkeypatch.setattr(cli_mod, "invariant_report", broken)
        assert main(["report", TREE]) == 2
        assert capsys.readouterr().err == "internal error: ValueError: escaped after parsing\n"

    @pytest.mark.parametrize("argv, depth", [
        pytest.param(argv, depth, id=argv[0] if depth == 2000 else f"{argv[0]}-{depth}")
        for argv in (["report"], ["oracle"], ["check-link", "--n", "4", "--matrix"], ["classify", "--matrix"])
        for depth in (2000, 100_000)])
    def test_deeply_nested_json_exit_one(self, argv, depth, tmp_path, capsys):
        # every supported decoder recurses too deep at 100,000 unclosed arrays; at 2,000 some do, and 3.13's
        # reports the unclosed array instead, so there only the exit code and the locus are fixed
        path = tmp_path / "nested.json"
        path.write_text("[" * depth)
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        if depth == 2000:
            assert err.startswith(f"error: {path}:") and err.count("\n") == 1
        else:
            assert err == f"error: {path}: arrays or objects nested too deeply to decode\n"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_selftest_needs_a_trial(self, trials, capsys):
        assert main(["selftest", "--trials", trials]) == 1
        assert capsys.readouterr() == ("", f"error: argument --trials: at least 1 trial required, got {trials}\n")

    @needs_digit_limit
    @pytest.mark.parametrize("argv", [["report"], ["oracle"], ["check-link", "--n", "4", "--matrix"],
                                      ["classify", "--matrix"]], ids=lambda argv: argv[0])
    def test_determinant_past_digit_limit_exit_one(self, argv, tmp_path, capsys):
        big = "9" * (DIGIT_LIMIT // 2 + 100)  # a printable entry whose determinant, about its square, is not
        rows = f"[[0, {big}], [{big}, 0]]"
        path = tmp_path / "big.json"
        if argv[0] in ("report", "oracle"):
            path.write_text(json.dumps(black_pair(4)).replace("[[0, 1], [1, 0]]", rows))
            locus = f"{path}.graphs[0].vertices[0].matrix"
        else:
            path.write_text(rows)
            locus = str(path)
        assert main([*argv, str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {locus}: determinant: Exceeds the limit")

    @needs_digit_limit
    def test_theta_past_digit_limit_check_link_exit_one(self, tmp_path, capsys):
        # theta itself is printable; the admissibility note's theta * 4 + 1 components are not
        path = tmp_path / "hh.json"
        path.write_text("[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]")
        assert main(["check-link", "--matrix", str(path), "--n", "4", "--theta", "9" * DIGIT_LIMIT]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: theta: ") and "Exceeds the limit" in err and err.count("\n") == 1

    @needs_digit_limit
    def test_theta_past_digit_limit_spec_exit_one(self, tmp_path, capsys):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({**black_pair(4), "theta": int("9" * DIGIT_LIMIT)}))
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}.graphs[0].vertices[0].matrix: theta: ") and err.count("\n") == 1

    @staticmethod
    def shift_decoration(c):
        """[[0, M], [M^T, 0]] with M = I + c N, N the 4 x 4 shift: unimodular, M^-1 = I - c N + c**2 N**2 - c**3 N**3."""
        m = [[int(i == j) + c * (j == i + 1) for j in range(4)] for i in range(4)]
        return [[0] * 4 + m[i] for i in range(4)] + [[m[j][i] for j in range(4)] + [0] * 4 for i in range(4)]

    @needs_digit_limit
    def test_linking_matrix_past_digit_limit_exit_one(self, tmp_path, capsys):
        # every entry of the decoration and its determinant print, but c**3 in the inverse does not
        rows = self.shift_decoration(10 ** (DIGIT_LIMIT // 3 + 1))
        path = tmp_path / "long.json"
        path.write_text(json.dumps(one_vertex_tree(exactlinalg.IntMatrix.from_rows(rows), 4)))
        for argv in (["report", str(path)], ["report", str(path), "--oracle", "--format", "json"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"error: {path}.graphs[0].vertices[0].matrix: linking matrix: Exceeds the limit")
        assert main(["oracle", str(path)]) == 0  # the oracle prints no entry
        assert capsys.readouterr().out.endswith("all_match = true\n")

    @needs_digit_limit
    def test_cup_form_past_digit_limit_exit_one(self, tmp_path, capsys):
        # two black vertices decorated alike and joined component to component: the cup form is twice the
        # linking matrix, whose corner, the sum of the inverse's entries, is -2 c**3 + 4 c**2 - 6 c + 8;
        # with c = 14 * 10**1432 it has 4,300 digits, and twice it 4,301
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            black = {"color": "black", "matrix": self.shift_decoration(14 * 10**1432)}
            edges = [{"u": 0, "v": 1, "u_comp": c, "v_comp": c} for c in range(9)]
            path = tmp_path / "pair.json"
            path.write_text(json.dumps({"n": 4, "k": 0, "graphs": [{"vertices": [black, black], "edges": edges}]}))
            assert main(["report", str(path)]) == 1
        finally:
            sys.set_int_max_str_digits(previous)
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: cup form: Exceeds the limit")


def assert_report_matches_reference(report):
    """The report's kernel is the rational kernel of its printed cup form; for epsilon = 1, its inertia is the form's."""
    q = exactlinalg.IntMatrix.from_rows(report["cup_form"]["matrix"])
    assert report["kernel_basis"] == [[str(x) for x in vec] for vec in exactlinalg.nullspace_rational(q)]
    if report["cup_form"]["epsilon"] == 1:
        reference = BilinearForm(q, 1).inertia
        inertia = report["inertia"]
        assert (inertia["n_plus"], inertia["n_minus"], inertia["n_zero"]) == (
            reference.n_plus, reference.n_minus, reference.n_zero)


# the top rungs of the decoration ladder: zero-diagonal models, every pivot 1 x 1, at n = 4, and random
# congruences of skew forms, every pivot 2 x 2, at n = 5
LARGE_DECORATIONS = {
    "d96": (lambda: zero_diagonal_model(10, 8).matrix, 4),
    "skew96": (lambda: random_congruence(random.Random(96), skew_seed(48)).matrix, 5),
    "zd200": (lambda: zero_diagonal_model(20, 20).matrix, 4),
    "skew200": (lambda: random_congruence(random.Random(100), skew_seed(100)).matrix, 5),
}


def big_entry_rows():
    """A random symmetric zero-diagonal 24 x 24 matrix with 100-digit entries (seed 24): not unimodular."""
    rng = random.Random(24)
    rows = [[0] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            rows[i][j] = rows[j][i] = rng.choice((-1, 1)) * rng.randrange(10**99, 10**100)
    return rows


class TestFreshInterpreter:
    """The CLI as shipped: a fresh interpreter per run, in development mode with warnings as errors."""

    def test_selftest_many_trials(self):
        proc = fresh_python("-m", "hopfcalc.cli", "selftest", "--seed", "1", "--trials", "200", timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout.count(": pass\n") == 4

    @pytest.mark.parametrize("name", LARGE_DECORATIONS)
    def test_large_decoration_matches_oracle_and_reference(self, name, tmp_path):
        build, n = LARGE_DECORATIONS[name]
        matrix = build()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(one_vertex_tree(matrix, n)))
        docs = []
        for argv in (["oracle"], ["report", "--oracle"]):
            proc = fresh_python("-m", "hopfcalc.cli", *argv, str(path), "--format", "json", timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            docs.append(json.loads(proc.stdout))
        oracle, report = docs
        # every component 0..d in order, each one group Z and matched, and report --oracle prints the same checks
        checks = [(c["graph"], c["vertex"], c["component"], c["group"], c["match"]) for c in oracle["checks"]]
        assert oracle["all_match"] is True and checks == [(0, 0, s, "Z", True) for s in range(matrix.rows + 1)]
        assert report["oracle"] == oracle
        assert report["cup_form"]["epsilon"] == (-1) ** n
        assert_report_matches_reference(report)
        if name == "d96":
            link = {key: report["links"][0][key] for key in ("determinant", "definiteness", "classification")}
            assert (report["sigma"], report["kernel_dim"], report["inertia"]) == (
                80, 1, {"n_plus": 88, "n_minus": 8, "n_zero": 1})
            assert link == {"determinant": 1, "definiteness": "indefinite", "classification": {"p": 10, "q": 8}}

    @pytest.mark.parametrize("argv, code", [(["report"], 1), (["check-link", "--n", "4", "--matrix"], 0),
                                            (["classify", "--matrix"], 0)], ids=["report", "check-link", "classify"])
    def test_big_entries_within_twenty_seconds(self, argv, code, tmp_path):
        # report rejects the matrix as a decoration; check-link and classify take any symmetric matrix
        rows = big_entry_rows()
        path = tmp_path / "big24.json"
        path.write_text(json.dumps(one_vertex_tree(exactlinalg.IntMatrix.from_rows(rows), 4) if code else rows))
        proc = fresh_python("-m", "hopfcalc.cli", *argv, str(path), timeout=20)
        assert proc.returncode == code
        if code:
            assert proc.stderr.startswith(f"error: {path}") and proc.stderr.count("\n") == 1
        else:
            assert proc.stderr == ""


def _nodes(doc):
    """(container, key) for every value below ``doc``, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _nodes(value)


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from([2**64, -(10**4000)]), st.text(max_size=3),
    st.just([]), st.just({}), st.just([[0, 1], [1, 0]]), st.just({"color": "white"}),
)


@st.composite
def mutated_fixture(draw):
    """A shipped fixture after one to three edits: a value replaced, deleted, or one added beside it."""
    doc = load(fixture_path(draw(st.sampled_from(sorted(fixture_names())))))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        container, key = draw(st.sampled_from(nodes))
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        leaf = copy.deepcopy(draw(LEAVES))
        if edit == "replace":
            container[key] = leaf
        elif edit == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(["extra", "n", "k", "theta", "twist"]))] = leaf
        else:
            container.insert(key, leaf)
    return doc


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_fixture())
def test_mutated_fixtures_exit_zero_or_one(tmp_path, capsys, doc):
    # every mutated document is either answered or rejected with one line naming the file, never exit 2
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    for argv in (["report", str(path)], ["oracle", str(path)], ["report", str(path), "--oracle"]):
        code = main(argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 1 and err.startswith(f"error: {path}") and err.count("\n") == 1, err
