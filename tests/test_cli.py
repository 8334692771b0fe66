"""Command-line behavior: output formats, exit codes, and that CLI output
mirrors library serialization byte for byte."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat import cli, graphs, verify

from ramat.cli import main
from ramat.graphs import Graph, graph6_decode, graph6_encode, complete, crown, cycle, kneser, path
from ramat.graphs import connected_components
from ramat.products import disjoint_union
from ramat.ra_core import classification_record, classify, ra_matrix


KNESER_6_2 = "N@Q@YiWw@Ziuesww^_?"  # graph6 of Kn(6,2)
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAnalyze:
    def test_half_ra_girth3_string(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "H?zTb_{")
        assert rc == 0
        rec = json.loads(out)
        assert rec["status"] == "1/2-RA"
        assert rec["girth"] == 3
        assert rec["graph6"] == "H?zTb_{"

    def test_crown12_is_quarter_ra(self, capsys):
        g6 = graph6_encode(crown(12))
        rc, out, _ = run_cli(capsys, "analyze", g6)
        assert json.loads(out)["status"] == "1/4-RA"

    def test_kernel_graph_general(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "ICQrThix_")
        rec = json.loads(out)
        assert rec["status"] == "general"
        assert rec["divisors"] == [1] * 9 + [0]
        assert rec["nullity"] == 1

    def test_json_matches_library_record(self, capsys):
        g = crown(10)
        rc, out, _ = run_cli(capsys, "analyze", graph6_encode(g))
        rec = json.loads(out)
        want = classification_record(g, classify(g))
        want["graph6"] = graph6_encode(g)
        assert rec == want

    def test_disconnected_gives_component_records(self, capsys):
        from ramat.graphs import complete, path

        g = disjoint_union([complete(3), path(3)])
        rc, out, _ = run_cli(capsys, "analyze", graph6_encode(g))
        recs = [json.loads(line) for line in out.splitlines()]
        assert len(recs) == 2
        assert [r["n"] for r in recs] == [3, 3]
        assert [r["status"] for r in recs] == ["general", "RA"]
        assert all(r["connected"] for r in recs)

    def test_tsv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--tsv", "--axis", "H?zTb_{")
        fields = out.strip().split("\t")
        assert fields[0] == "H?zTb_{"
        assert fields[7] == "1/2-RA"
        assert fields[9].count(",") == 8  # nine axis multiples

    def test_file_and_error_reporting(self, capsys, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text("C~\nnot-a-graph!!\nD?{\n", encoding="ascii")
        rc, out, err = run_cli(capsys, "analyze", str(f))
        assert rc == 2  # input error reported, processing continued
        assert "line 2" in err
        assert len(out.splitlines()) == 2

    def test_directory_argument_is_input_error(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "analyze", "C~", str(tmp_path), "D?{")
        assert rc == 2
        assert len(out.splitlines()) == 2  # the other arguments still ran
        assert err.startswith("ramat: ") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n\nD?{\n"))
        rc, out, _ = run_cli(capsys, "analyze")
        assert rc == 0
        assert len(out.splitlines()) == 2


class TestInputRobustness:
    NON_ASCII = b"C~\n\xc3\xa9\nA_\n"

    def test_analyze_non_ascii_line_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "latin.g6"
        f.write_bytes(self.NON_ASCII)
        rc, out, err = run_cli(capsys, "analyze", str(f))
        assert rc == 2
        assert "line 2" in err
        assert [json.loads(s)["graph6"] for s in out.splitlines()] == ["C~", "A_"]

    def test_batch_non_ascii_line_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "latin.g6"
        f.write_bytes(self.NON_ASCII)
        rc, out, err = run_cli(capsys, "batch", str(f))
        assert rc == 2
        assert "line 2" in err
        assert out.splitlines()[-1] == "total\t\t2"

    def test_analyze_stdin_non_ascii_line_is_input_error(self):
        # a strict UTF-8 stdin would raise on the byte 0xff before any line
        # reached the graph6 parser
        proc = subprocess.run(
            [sys.executable, "-m", "ramat.cli", "analyze", "-"],
            input=b"C~\n\xff\nA_\n",
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"},
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert b"stdin line 2" in proc.stderr
        assert b"Traceback" not in proc.stderr
        assert [json.loads(s)["graph6"] for s in proc.stdout.splitlines()] == ["C~", "A_"]

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=64), st.sampled_from(["analyze", "batch"]))
    def test_arbitrary_file_bytes_exit_0_or_2(self, tmp_path_factory, data, command):
        f = tmp_path_factory.mktemp("fuzz") / "input.g6"
        f.write_bytes(data)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main([command, str(f)])
        assert rc in (0, 2)

    def test_one_decode_per_line(self, capsys, tmp_path, monkeypatch):
        decoded = []
        real = graphs.graph6_decode

        def counted(text):
            decoded.append(text)
            return real(text)

        monkeypatch.setattr(graphs, "graph6_decode", counted)
        monkeypatch.setattr(cli, "graph6_decode", counted)
        lines = [graph6_encode(crown(8)), "C~", graph6_encode(kneser(5, 2)), "A_"]
        f = tmp_path / "four.g6"
        f.write_text(">>graph6<<\n" + "\n\n".join(lines) + "\n", encoding="ascii")
        for argv in (["batch", str(f), "--workers", "1"], ["analyze", str(f)]):
            decoded.clear()
            rc, _, _ = run_cli(capsys, *argv)
            assert rc == 0
            assert decoded == lines, argv[0]


class TestGenAndProduct:
    def test_gen_families(self, capsys):
        for args, n in (
            (("path", "5"), 5),
            (("cycle", "6"), 6),
            (("complete", "4"), 4),
            (("complete-bipartite", "2", "3"), 5),
            (("cube", "3"), 8),
            (("folded-cube", "4"), 8),
            (("crown", "10"), 10),
            (("kneser", "5", "2"), 10),
            (("binary", "8"), 11),
        ):
            rc, out, _ = run_cli(capsys, "gen", *args)
            assert rc == 0
            assert graph6_decode(out.strip()).n == n

    def test_gen_complement(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "complete", "4")
        k4 = out.strip()
        rc, out, _ = run_cli(capsys, "gen", "complement", k4)
        assert graph6_decode(out.strip()).edge_count() == 0

    def test_gen_bad_family_and_params(self, capsys):
        rc, _, err = run_cli(capsys, "gen", "nonsense", "3")
        assert rc == 2
        rc, _, err = run_cli(capsys, "gen", "crown", "7")
        assert rc == 2

    def test_gen_pipe_to_analyze(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "crown", "10")
        rc, out, _ = run_cli(capsys, "analyze", out.strip())
        assert json.loads(out)["status"] == "1/3-RA"

    def test_product_cartesian_completes(self, capsys):
        rc, k4, _ = run_cli(capsys, "gen", "complete", "4")
        rc, out, _ = run_cli(capsys, "product", "cartesian", k4.strip(), k4.strip())
        rc, out, _ = run_cli(capsys, "analyze", out.strip())
        assert json.loads(out)["status"] == "RA"

    def test_product_unary_and_union(self, capsys):
        rc, k3, _ = run_cli(capsys, "gen", "complete", "3")
        rc, out, _ = run_cli(capsys, "product", "pyramid", k3.strip())
        assert graph6_decode(out.strip()).n == 4
        rc, out, _ = run_cli(capsys, "product", "union", k3.strip(), k3.strip())
        g = graph6_decode(out.strip())
        assert g.n == 6 and len(connected_components(g)) == 2


class TestConstruct:
    def test_verified_construction(self, capsys):
        rc, out, _ = run_cli(capsys, "construct", "--divisors", "2,4",
                             "--nullity", "1")
        assert rc == 0
        lines = out.splitlines()
        rec = json.loads(lines[1])
        assert rec["verified"] is True
        assert rec["prescribed_divisors"] == [2, 4]
        assert rec["nullity"] == 1
        g = graph6_decode(lines[0])
        c = classify(g)
        assert sorted(d for d in c.divisors if d > 1) == [2, 4]

    def test_invalid_chain(self, capsys):
        rc, _, err = run_cli(capsys, "construct", "--divisors", "2,3")
        assert rc == 2

    def test_nullity_only_verifies(self, capsys):
        for r in range(1, 13):
            rc, out, _ = run_cli(capsys, "construct", "--nullity", str(r))
            rec = json.loads(out.splitlines()[1])
            assert (rc, rec["verified"], rec["nullity"]) == (0, True, r)


class TestBatch:
    def test_small_file_counts(self, capsys, tmp_path):
        from ramat.graphs import Graph

        bull = Graph.from_edges(5, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5)])
        lines = [
            graph6_encode(crown(8)),       # girth 4, not RA
            graph6_encode(crown(10)),      # girth 4, not RA
            graph6_encode(kneser(5, 2)),   # girth 5
            "C~",                          # K4: girth 3, indistinguishable
            graph6_encode(bull),           # girth 3, distinguishable, RA
        ]
        f = tmp_path / "batch.g6"
        f.write_text("\n".join(lines) + "\n", encoding="ascii")
        rc, out, _ = run_cli(capsys, "batch", str(f))
        assert rc == 0
        rows = dict()
        for line in out.splitlines()[1:]:
            parts = line.split("\t")
            rows[(parts[0], parts[1])] = int(parts[2])
        assert rows[("4", "not-ra")] == 2
        assert rows[("5+", "all")] == 1
        assert rows[("3", "nbhd-indistinguishable")] == 1
        assert rows[("3", "nbhd-distinguishable-ra")] == 1
        assert rows[("total", "")] == 5

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.g6"
        f.write_text("", encoding="ascii")
        rc, out, _ = run_cli(capsys, "batch", str(f))
        assert rc == 0
        assert out.splitlines()[-1] == "total\t\t0"

    def test_worker_and_order_independence(self, capsys, tmp_path):
        lines = [graph6_encode(crown(8)), "C~", graph6_encode(kneser(5, 2))] * 40
        f = tmp_path / "many.g6"
        f.write_text("\n".join(lines) + "\n", encoding="ascii")
        rc, out1, _ = run_cli(capsys, "batch", str(f), "--workers", "1")
        rc, out2, _ = run_cli(capsys, "batch", str(f), "--workers", "3")
        assert out1 == out2
        f2 = tmp_path / "reversed.g6"
        f2.write_text("\n".join(reversed(lines)) + "\n", encoding="ascii")
        rc, out3, _ = run_cli(capsys, "batch", str(f2), "--workers", "2")
        assert out3 == out1

    def test_parse_errors_reported(self, capsys, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("C~\nbroken!!\n", encoding="ascii")
        rc, out, err = run_cli(capsys, "batch", str(f))
        assert rc == 2
        assert "line 2" in err
        assert out.splitlines()[-1] == "total\t\t1"

    def test_workers_capped_at_cpu_count(self, capsys, tmp_path, monkeypatch):
        # a fork pool starts max_workers processes at its first submit; this
        # fake records the count and runs the chunks in this process
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        lines = [graph6_encode(crown(8)), "C~", graph6_encode(kneser(5, 2))] * 40
        f = tmp_path / "many.g6"
        f.write_text("\n".join(lines) + "\n", encoding="ascii")
        rc, out, _ = run_cli(capsys, "batch", str(f), "--workers", "100000")
        assert rc == 0
        assert pools == [3]
        rc, serial, _ = run_cli(capsys, "batch", str(f), "--workers", "1")
        assert out == serial


class TestPredictKernelOracle:
    def test_predict_tensor_completes(self, capsys):
        rc, out, _ = run_cli(capsys, "predict", "tensor-completes", "2,5",
                             "--check")
        assert rc == 0
        rec = json.loads(out)
        assert rec["mu"] == 3
        assert rec["computed_mu"] == 3

    def test_predict_girth4(self, capsys):
        rc, g6, _ = run_cli(capsys, "gen", "crown", "12")
        rc, out, _ = run_cli(capsys, "predict", "girth4", g6.strip(), "--check")
        assert rc == 0
        assert json.loads(out)["mu"] == 4

    def test_predict_tensor_of_large_odd_cycles(self, capsys):
        c101 = graph6_encode(cycle(101))
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "predict", "tensor", c101, c101)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 0
        assert json.loads(out) == {
            "theorem_id": "tensor-nonbipartite", "applicable": True,
            "mu": 1, "ingredients": {},
        }

    def test_predict_inapplicable_names_hypothesis(self, capsys):
        rc, k3, _ = run_cli(capsys, "gen", "complete", "3")
        rc, out, _ = run_cli(capsys, "predict", "girth4", k3.strip())
        rec = json.loads(out)
        assert rec["applicable"] is False
        assert "girth" in rec["reason"]

    def test_predict_kneser_prism(self, capsys):
        rc, out, _ = run_cli(capsys, "predict", "kneser-prism", "0", "0")
        rec = json.loads(out)
        assert (rec["n"], rec["k"]) == (6, 2)
        assert rec["conditions_hold"] is True

    def test_kernel_dimension(self, capsys):
        rc, g6, _ = run_cli(capsys, "gen", "kneser", "6", "2")
        rc, out, _ = run_cli(capsys, "kernel", "--mod", "2", g6.strip())
        assert rc == 0
        assert len(out.splitlines()) == 4

    def test_kernel_composite_mod(self, capsys):
        rc, g6, _ = run_cli(capsys, "gen", "complete", "3")
        rc, _, err = run_cli(capsys, "kernel", "--mod", "4", g6.strip())
        assert rc == 2

    def test_kernel_large_prime(self, capsys):
        p = 1000003
        g6 = "ICQrThix_"  # nullity 1 over Z, so one kernel vector mod any p
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "kernel", "--mod", str(p), g6)
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 0.1
        basis = [[int(x) for x in line.split()] for line in out.splitlines()]
        assert len(basis) == 1
        mat = ra_matrix(graph6_decode(g6)).matrix
        for v in basis:
            assert all(x % p == 0 for x in mat.mul_vector(v))

    def test_kernel_modulus_past_int64(self, capsys):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "kernel", "--mod", "4000000007", "C~")
        assert rc == 2
        assert out == ""
        assert "int64" in err
        assert time.perf_counter() - t0 < 1.0

    def test_kernel_output_is_pinned(self, capsys):
        # one vector per free column of the reduced row echelon form mod p,
        # which is unique: these lines are the certificates as published
        rc, out, _ = run_cli(capsys, "kernel", "--mod", "2", KNESER_6_2)
        assert rc == 0
        assert out.splitlines() == [
            "0 1 1 1 1 0 1 1 0 0 1 1 0 0 0",
            "1 0 1 1 0 1 1 0 1 0 1 0 1 0 0",
            "1 1 0 0 1 1 1 0 0 1 1 0 0 1 0",
            "1 1 0 1 0 0 0 1 1 1 1 0 0 0 1",
        ]
        rc, out, _ = run_cli(capsys, "kernel", "--mod", "1000003", "ICQrThix_")
        assert rc == 0
        assert out.splitlines() == [
            "1000002 1 0 1 1000002 1 1000002 1000002 1 0",
        ]

    def test_oracle_graph_record(self, capsys):
        rc, g6, _ = run_cli(capsys, "gen", "path", "3")
        rc, out, _ = run_cli(capsys, "oracle", "--group", "heisenberg:2",
                             g6.strip())
        rec = json.loads(out)
        assert rec["order_G_Gamma"] == 512
        assert rec["is_G_RA"] is True
        assert rec["comm_b_order"] == 8

    def test_oracle_matrix(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "--group", "dihedral:8",
                             "--matrix", "1 2;0 4")
        assert json.loads(out)["order"] == 16

    def test_oracle_budget(self, capsys):
        rc, g6, _ = run_cli(capsys, "gen", "path", "10")
        rc, _, err = run_cli(capsys, "oracle", "--group", "heisenberg:2",
                             g6.strip(), "--cap", "1000")
        assert rc == 2
        assert "cap" in err

    @pytest.mark.parametrize("group", ["dihedral:100000", f"heisenberg:{10**18 + 9}"])
    def test_oracle_refuses_table_over_cap_up_front(self, capsys, group):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "oracle", "--group", group, "--matrix", "1")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert "cap 10000000" in err


class TestBudgets:
    @pytest.mark.parametrize("argv", [
        ["gen", "crown", "100000000000"],
        ["gen", "cube", "1000000000000"],
        ["construct", "--divisors", "100000000"],
        ["product", "cartesian"] + ["C~"] * 6,  # K4 six times: 4096 vertices
        ["predict", "tensor-completes", "2,100000000", "--check"],
        ["predict", "kneser-prism", "1000000000000", "0"],
    ])
    def test_refused_before_any_work(self, capsys, argv):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert err.startswith("ramat: ") and "budget" in err

    def test_graph6_input_past_budget_is_a_line_error(self, capsys, tmp_path):
        big = graph6_encode(Graph(1100, [0] * 1100))
        f = tmp_path / "mixed.g6"
        f.write_text(f"C~\n{big}\nBw\n")
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "analyze", str(f))
        assert rc == 2
        assert [json.loads(line)["n"] for line in out.splitlines()] == [4, 3]
        assert f"{f} line 2: " in err and "1100 vertices" in err and "budget" in err
        rc, out, err = run_cli(capsys, "batch", str(f))
        assert rc == 2
        assert out.splitlines()[-1] == "total\t\t2"
        assert f"{f} line 2: " in err and "budget" in err
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("argv", [
        ["kernel", "--mod", "2", "BIG"],
        ["analyze", "BIG"],
        ["gen", "complement", "BIG"],
        ["predict", "girth4", "BIG"],
        ["oracle", "--group", "dihedral:8", "BIG"],
        ["product", "prism", "HALF"],
        ["product", "join", "HALF", "HALF"],
        ["product", "union", "HALF", "HALF"],
        ["product", "pyramid", "FULL"],
    ])
    def test_graph6_inputs_and_products_past_budget(self, capsys, argv):
        g6 = {n: graph6_encode(Graph(n, [0] * n))
              for n in (600, 1024, 1100)}
        sub = {"BIG": g6[1100], "HALF": g6[600], "FULL": g6[1024]}
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, *(sub.get(a, a) for a in argv))
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert err.startswith("ramat: ") and "budget of 1024 vertices" in err

    def test_largest_named_graph_fits(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "kneser", "15", "3")
        assert rc == 0
        assert graph6_decode(out.strip()).n == 455

    @pytest.mark.parametrize("argv, message", [
        (["gen", "cube", "-3"], "cube needs d >= 0"),
        (["gen", "kneser", "5", "0"], "kneser needs n >= k >= 1"),
        (["gen", "complete-bipartite", "100000000000", "-99999999990"],
         "complete bipartite needs m, n >= 1"),
        (["predict", "kneser-prism", "-1", "5"], "a and b must be nonnegative"),
    ])
    def test_invalid_parameters_keep_their_own_message(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert err == f"ramat: {message}\n"

    def test_closed_form_prediction_builds_no_graph(self, capsys):
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "predict", "tensor-completes", "2,1500")
        assert time.perf_counter() - t0 < 0.5
        assert rc == 0
        assert json.loads(out)["mu"] == 1498

    def test_kneser_prism_binomials_by_lucas(self, capsys):
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "predict", "kneser-prism", "8", "0")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 0
        assert json.loads(out) == {"n": 32806, "k": 6562, "conditions_hold": True}


# graph6-like text: the graph6 byte range plus a few characters outside it,
# or a valid graph6 string of a small graph
G6ISH = st.text(
    st.sampled_from([chr(c) for c in range(63, 127)] + [" ", ",", ":", ";", "\xe9"]),
    max_size=8,
)
G6 = st.sampled_from(
    [graph6_encode(g) for g in (complete(2), path(3), cycle(5), complete(4),
                                crown(8), kneser(5, 2))]
) | G6ISH
# integers up to 10**12 in size, either small or past every budget: a
# mid-sized value can pass the vertex budget with a graph of a few hundred
# vertices, and classifying that takes minutes (classify has no budget yet)
INTS = st.one_of(
    st.integers(-4, 9),
    st.integers(10 ** 5, 10 ** 12),
    st.integers(-10 ** 12, -10 ** 5),
).map(str)
INT_LISTS = st.lists(INTS, min_size=1, max_size=3).map(",".join)
TOKENS = st.lists(st.one_of(G6, INTS, INT_LISTS), max_size=3)
COMMANDS = {
    # subcommand -> (strategy of its leading positionals, its other positionals)
    "analyze": (st.just([]), TOKENS),
    "gen": (st.sampled_from([*cli._FAMILIES, "complement", "bogus"]).map(lambda f: [f]),
            st.lists(INTS, max_size=3) | TOKENS),
    "product": (st.sampled_from(["cartesian", "tensor", "strong", "join", "prism",
                                 "pyramid", "union"]).map(lambda op: [op]), TOKENS),
    "construct": (st.just([]), st.just([])),
    "batch": (G6ISH.map(lambda path: [path]), st.just([])),
    "predict": (st.sampled_from(["girth4", "prism", "negatively-neighborly", "neighborly",
                                 "cartesian", "tensor", "tensor-completes", "tensor-scaled",
                                 "kneser-prism", "bogus"]).map(lambda t: [t]),
                st.lists(G6, max_size=2) | TOKENS),
    "kernel": (st.just([]), st.lists(G6, min_size=1, max_size=1) | TOKENS),
    "oracle": (st.just([]), st.lists(G6, max_size=1)),
}


@st.composite
def cli_argv(draw):
    """argv for one subcommand: its positionals and a random subset of its
    own flags.  verify gets only unknown suite names (never a real, slow
    suite) and oracle a small --cap."""
    def flag(name, values):
        return draw(st.one_of(st.just([]), values.map(lambda v: [name, v])))

    def switch(name):
        return draw(st.sampled_from([[], [name]]))

    command = draw(st.sampled_from([*COMMANDS, "verify"]))
    if command == "verify":
        suite = draw(G6ISH.filter(lambda s: s not in (*verify.SUITES, "all")))
        return ["verify", "--suite", suite]
    head, rest = COMMANDS[command]
    argv = [command, *draw(head), *draw(rest)]
    if command == "analyze":
        argv += switch("--json") + switch("--tsv") + switch("--axis")
    elif command == "construct":
        argv += flag("--divisors", INT_LISTS) + flag("--nullity", INTS)
    elif command == "batch":
        argv += flag("--workers", INTS) + switch("--summary=girth-category")
    elif command == "predict":
        argv += flag("--parts", st.tuples(INT_LISTS, INT_LISTS).map("/".join) | G6ISH)
        argv += switch("--check")
    elif command == "kernel":
        argv += ["--mod", draw(INTS)]
    elif command == "oracle":
        group = st.tuples(st.sampled_from(["heisenberg", "dihedral", "bogus"]),
                          INTS | G6ISH).map(":".join)
        matrix = st.lists(st.lists(INTS, min_size=1, max_size=2).map(" ".join),
                          min_size=1, max_size=2).map(";".join)
        argv += ["--group", draw(group), "--cap", str(draw(st.integers(0, 10 ** 4)))]
        argv += flag("--matrix", matrix)
    return argv


class TestArgumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cli_argv())
    def test_every_subcommand_exits_0_1_or_2(self, argv):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                mock.patch.object(sys, "stdin", io.StringIO("")):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                assert exc.code == 2, argv
                return
        assert rc in (0, 1, 2), argv
        assert time.perf_counter() - t0 < 5.0, argv


class TestVerify:
    def test_single_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "hermite")
        assert rc == 0
        lines = out.splitlines()
        assert all(line.endswith("pass") for line in lines[:-1])
        assert "0 failures" in lines[-1]

    def test_girth3_suite(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "girth3-minimal")
        assert rc == 0

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "verify", "--suite", "bogus")

    def test_all_suites_match_the_benchmark_reference(self, capsys):
        # the benchmark checks every verify-all line against this file
        ref = SRC.parent / "perfbench" / "ref" / "verify_all.tsv"
        rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert rc == 0
        got = out.splitlines()
        want = ref.read_text(encoding="ascii").splitlines()
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"line {i + 1}"
        assert len(got) == len(want)


class TestStdlibOnly:
    def test_runs_without_numpy(self):
        # a None entry in sys.modules makes every import of numpy fail
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import ramat\n"
            "from ramat import cli, graphs, group_oracle, intlin, products\n"
            "from ramat import ra_core, theorems, verify\n"
            f"sys.exit(cli.main(['kernel', '--mod', '2', {KNESER_6_2!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 4
