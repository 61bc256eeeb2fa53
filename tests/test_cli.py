import json
import os
import subprocess
import sys

import pytest

import hopfcalc
from hopfcalc.cli import (
    SpecFileError,
    build_report,
    emit_report,
    main,
    parse_spec,
    parse_spec_data,
    spec_to_data,
)
from hopfcalc.fixtures import fixture_names, fixture_path

TREE = fixture_path("tree_h.json")
TREE_E8H = fixture_path("tree_e8h.json")
PRODUCTS = fixture_path("products.json")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestParse:
    def test_fixture_corpus_parses(self):
        for name in fixture_names():
            parse_spec(fixture_path(name))

    def test_tree_fixture(self):
        spec = parse_spec(TREE)
        assert (spec.n, spec.k, spec.theta, spec.assume_cobounding) == (3, 0, 1, True)
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

    def test_twist_annotation_round_trips(self):
        data = load(TREE)
        data["graphs"][0]["edges"][0]["twist"] = "half-turn"
        spec = parse_spec_data(data)
        assert spec.graphs[0].edges[0].twist == "half-turn"
        assert spec_to_data(spec)["graphs"][0]["edges"][0]["twist"] == "half-turn"


class TestEmit:
    def test_deterministic_bytes(self):
        for name in fixture_names():
            spec = parse_spec(fixture_path(name))
            for fmt in ("text", "json"):
                assert emit_report(spec, fmt=fmt) == emit_report(spec, fmt=fmt)

    def test_round_trip_normalized_spec(self):
        for name in fixture_names():
            spec = parse_spec(fixture_path(name))
            doc = json.loads(emit_report(spec, fmt="json"))
            assert parse_spec_data(doc["spec"]) == spec

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
        assert out.count("pass") == 3

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

    def test_null_twist_exit_one(self, tmp_path, capsys):
        data = load(TREE)
        data["graphs"][0]["edges"][0]["twist"] = None
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 1
        assert "graphs[0].edges[0].twist: expected a string" in capsys.readouterr().err

    def test_missing_field_message_is_deterministic(self, tmp_path):
        data = load(TREE)
        del data["graphs"][0]["edges"][0]["u"], data["graphs"][0]["edges"][0]["v"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        src = os.path.dirname(os.path.dirname(hopfcalc.__file__))
        errors = set()
        for seed in range(6):  # set iteration order of str follows the hash seed
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "hopfcalc.cli", "report", str(path)],
                                  env=env, capture_output=True, text=True, check=False)
            assert proc.returncode == 1
            errors.add(proc.stderr)
        assert len(errors) == 1 and "edges[0]: missing field 'u'" in errors.pop()

    def test_oracle_json_on_product_spec(self, capsys):
        assert main(["oracle", PRODUCTS, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"all_match": True, "checks": []}

    def test_internal_fault_exit_two(self, monkeypatch, capsys):
        import hopfcalc.graphmodel as graphmodel

        monkeypatch.setattr(graphmodel, "_glue_piece_euler", lambda graph, e, n, k: 99)
        assert main(["report", TREE]) == 2
        assert "fiber self-check failed" in capsys.readouterr().err

    def test_oracle_mismatch_exit_two(self, monkeypatch, capsys):
        import hopfcalc.cli as cli_mod

        def broken(result, column):
            return False

        monkeypatch.setattr(cli_mod, "oracle_matches_column", broken)
        assert main(["oracle", TREE]) == 2
        assert "internal invariant violation" in capsys.readouterr().err
