"""Command-line behavior: output formats, exit codes, and that CLI output
mirrors library serialization byte for byte."""

import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat import cli, graphs, ra_core, theorems, verify

from ramat.cli import main
from ramat.graphs import Graph, graph6_decode, graph6_encode, complete, crown, cube, cycle, kneser, path
from ramat.graphs import connected_components, subgraph
from ramat.products import disjoint_union
from ramat.ra_core import classification_record, classify, ra_matrix

from support import random_graph, with_closed_twins


KNESER_6_2 = "N@Q@YiWw@Ziuesww^_?"  # graph6 of Kn(6,2)
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@contextlib.contextmanager
def no_leak():
    """The block leaves no child process, running or unreaped, and no file
    descriptor open."""
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


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

    def test_long_size_header_is_encoded_afresh(self, capsys):
        # '~??@' gives n = 1 in the four-byte header; the record carries the
        # shortest encoding, not the input text
        rc, out, _ = run_cli(capsys, "analyze", "~??@")
        assert rc == 0
        assert json.loads(out)["graph6"] == "@"

    @pytest.mark.parametrize("line, graph6s, encoded", [
        (">>graph6<<C~", ["C~"], 1),
        ("~??@", ["@"], 1),
        ("~??C~", ["C~"], 1),
        (graph6_encode(disjoint_union([path(3), complete(3)])), ["Bg", "Bw"], 2),
        (graph6_encode(cycle(70)), [graph6_encode(cycle(70))], 0),
        ("H?zTb_{", ["H?zTb_{"], 0),
    ])
    def test_graph6_field_is_the_shortest_encoding(self, capsys, monkeypatch,
                                                   line, graph6s, encoded):
        # a canonical connected line is written back as it stands, with no
        # encoding; any other line prints what encoding each component
        # afresh prints
        calls = []
        monkeypatch.setattr(cli, "graph6_encode",
                            lambda g: calls.append(g) or graph6_encode(g))
        rc, out, _ = run_cli(capsys, "analyze", line)
        assert rc == 0
        assert len(calls) == encoded
        assert [json.loads(r)["graph6"] for r in out.splitlines()] == graph6s
        assert out == "".join(cli._format_record(rec, False, False)
                              for rec in cli._records_for(graph6_decode(line)))

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n\nD?{\n"))
        rc, out, _ = run_cli(capsys, "analyze")
        assert rc == 0
        assert len(out.splitlines()) == 2


CORPUS = Path(__file__).resolve().parent / "data" / "connected8.g6"
CORPUS_REF = SRC.parent / "perfbench" / "ref" / "corpus8_analyze.jsonl.gz"
CORPUS_BATCH_REF = SRC.parent / "perfbench" / "ref" / "corpus8_batch.tsv"
CORPUS_JSON_SHA256 = "33220bd8e606422c3ccad06d441f9e967ce1e37445344cf1025a7af432aeb03e"
CORPUS_TSV_AXIS_SHA256 = "4c12df9db6f43234cd1d40b282f4310fd3627b40f0d18232a58224ecee7be7f7"


class TestCorpusStdout:
    # the whole stdout of analyze over the 11 117 connected 8-vertex graphs,
    # pinned byte for byte: records, field order and formatting
    @pytest.mark.parametrize("flags, digest", [
        ((), CORPUS_JSON_SHA256),
        (("--tsv", "--axis"), CORPUS_TSV_AXIS_SHA256),
    ])
    def test_digest(self, capsys, flags, digest):
        rc, out, err = run_cli(capsys, "analyze", *flags, str(CORPUS))
        assert rc == 0 and err == ""
        assert len(out.splitlines()) == 11117
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("workers", [["--workers", "1"], []])
    def test_batch_table_is_the_benchmark_reference(self, capsys, workers):
        # in this process, and on the default workers, forked
        rc, out, err = run_cli(capsys, "batch", str(CORPUS), *workers)
        assert (rc, err) == (0, "")
        assert out == CORPUS_BATCH_REF.read_text(encoding="ascii")

    def test_json_digest_is_the_benchmark_reference(self):
        with gzip.open(CORPUS_REF, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == CORPUS_JSON_SHA256


@st.composite
def lane_lines(draw):
    """graph6 lines for the lanes: n from 1 to two past their cutoff,
    connected or not, with planted closed twins, and malformed lines."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        n = draw(st.integers(1, graphs._LANES_MAX_N + 2))
        g = with_closed_twins(rng, random_graph(rng, n, draw(st.sampled_from(
            (0.05, 0.2, 0.4, 0.7, 0.95)))))
        kind = draw(st.sampled_from(("plain", "plain", "split", "malformed")))
        if kind == "split" and n > 1:
            cut = rng.randint(1, n - 1)
            g = disjoint_union([subgraph(g, range(1, cut + 1)),
                                subgraph(g, range(cut + 1, n + 1))])
        text = graph6_encode(g)
        if kind == "malformed":
            text = draw(st.sampled_from((
                text[:-1], text + "?", "\x1f" + text, text + "\x0c", "~" + text,
                ">>graph6<<" + text, " \t" + text + "\r")))
        lines.append(text)
    return lines


class TestLanesDifferential:
    # analyze and batch with the lanes give the output of the per-graph
    # path, line by line, on any mix of lines
    @staticmethod
    def reference(lines, source, argv):
        """(exit code, stdout, stderr) of ``argv`` built per line from
        ``_records_for`` and ``batch_category``, with no lane taken."""
        out, err, counts = [], [], Counter()
        for lineno, text in graphs._graph6_lines(lines):
            try:
                g = graph6_decode(text)
            except ValueError as exc:
                err.append(f"ramat: {source} line {lineno}: {exc}\n")
                continue
            if argv[0] == "batch":
                counts[cli.batch_category(g)] += 1
            else:
                tsv, axis = "--tsv" in argv, "--axis" in argv
                out += [cli._format_record(rec, tsv, axis)
                        for rec in cli._records_for(g, text)]
        if argv[0] == "batch":
            out = ["girth\tcategory\tcount\n"]
            out += [f"{b}\t{c}\t{counts[b, c]}\n" for b, c in cli.BATCH_CATEGORIES]
            out.append(f"total\t\t{sum(counts.values())}\n")
        return 2 if err else 0, "".join(out), "".join(err)

    @staticmethod
    def run(argv, stdin=""):
        out, err = io.StringIO(), io.StringIO()
        data = io.TextIOWrapper(io.BytesIO(stdin.encode("ascii")), encoding="ascii")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(sys, "stdin", data):
            rc = main(argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, f, lines, chunk):
        """Run analyze (JSON, TSV, TSV with axis, stdin) and batch on
        ``lines`` written to the file ``f``, in chunks of ``chunk`` lines,
        against the per-line reference."""
        text = "".join(line + "\n" for line in lines)
        f.write_text(text, encoding="ascii")
        runs = [(["analyze", str(f)], str(f)),
                (["analyze", "--tsv", str(f)], str(f)),
                (["analyze", "--tsv", "--axis", str(f)], str(f)),
                (["analyze", "-"], "stdin"),
                (["batch", str(f)], str(f))]
        with mock.patch.object(cli, "_lane_verdicts", side_effect=AssertionError), \
                f.open(encoding="ascii") as fh:
            file_lines = list(fh)
            expected = [self.reference(file_lines, source, argv)
                        for argv, source in runs]
        # chunks of 3 lines split a file between calls; one process keeps
        # the examples fast
        with mock.patch.object(cli, "_CHUNK", chunk), \
                mock.patch.object(cli, "_cpu_count", return_value=1):
            for (argv, _), want in zip(runs, expected):
                assert self.run(argv, text) == want, argv

    @settings(max_examples=80, deadline=None)
    @given(lane_lines(), st.sampled_from((3, 512)))
    def test_lanes_change_no_byte(self, tmp_path_factory, lines, chunk):
        self.check(tmp_path_factory.mktemp("lanes") / "lines.g6", lines, chunk)

    def test_every_batch_row(self, tmp_path):
        # K2 + C4 has girth 4 and twins, so it is not RA; K3 and K4 have
        # twins, the 3-cube and crown(8) peel no column by singletons
        lines = [graph6_encode(g) for g in (
            complete(1), disjoint_union([complete(1)] * 2), complete(2),
            complete(3), complete(4), path(4), cycle(4), cycle(5), cube(3),
            crown(8), disjoint_union([complete(2), cycle(4)]),
            disjoint_union([cycle(4), complete(3)]), kneser(5, 2))]
        self.check(tmp_path / "named.g6", lines, 512)
        rc, out, _ = self.run(["batch", str(tmp_path / "named.g6")])
        assert rc == 0 and "4\tnot-ra\t3\n" in out

    def test_lanes_are_taken(self, monkeypatch, tmp_path):
        # the differential test above compares something: analyze and
        # batch hand the lines of each size header of at most
        # _LANES_MAX_N vertices to the lanes, one call per header and chunk
        calls = []
        real = cli._lane_verdicts
        monkeypatch.setattr(cli, "_lane_verdicts", lambda n, adj, count, connected:
                            calls.append((n, count, connected))
                            or real(n, adj, count, connected))
        f = tmp_path / "mixed.g6"
        f.write_text("C~\n~?@A" + "~" * 5 + "\nA_\n" + graph6_encode(path(32))
                     + "\nD?{\nC^\n", encoding="ascii")
        assert self.run(["analyze", str(f)])[0] == 2
        assert self.run(["batch", "--workers", "1", str(f)])[0] == 2
        # analyze's lanes leave a disconnected graph to the singletons
        assert calls == [(4, 2, True), (2, 1, True), (5, 1, True),
                         (4, 2, False), (2, 1, False), (5, 1, False)]

    def test_bad_lines_in_a_lane_group(self, tmp_path):
        # lines of the header and length of 8 vertices that do not decode,
        # or decode alone, among good ones: a non-ASCII byte, a control
        # byte, a nonzero padding bit and a '~' header copy; each error is
        # the per-line message at its place
        good = [graph6_encode(g) for g in (crown(8), cycle(8), path(8))]
        lines = [good[0].encode(), b"G?zTb\xc3", good[1].encode(), b"G?z\x1fb_",
                 b"G?zTb`", b"~??G" + good[0][1:].encode(), good[2].encode()]
        f = tmp_path / "group.g6"
        f.write_bytes(b"\n".join(lines) + b"\n")
        errors = (f"ramat: {f} line 2: 'ascii' codec can't encode character "
                  "'\\ufffd' in position 5: ordinal not in range(128)\n"
                  f"ramat: {f} line 4: graph6 byte 31 outside printable range 63..126\n"
                  f"ramat: {f} line 5: nonzero trailing bits in graph6 body\n")
        with f.open(encoding="ascii", errors="replace") as fh:
            file_lines = list(fh)
        with mock.patch.object(cli, "_cpu_count", return_value=1):
            for argv in (["analyze", str(f)], ["analyze", "--tsv", str(f)],
                         ["batch", str(f)]):
                want = self.reference(file_lines, str(f), argv)
                assert want[0] == 2 and want[2] == errors
                assert self.run(argv) == want, argv


class TestLaneGuard:
    # graphs above the cutoff, the library and verify never enter the
    # lanes: only analyze and batch chunks with a small graph do
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module in (cli, ra_core):
            real = module._lane_verdicts
            monkeypatch.setattr(module, "_lane_verdicts",
                                lambda *a, real=real: calls.append(a) or real(*a))
        # verify --suite all runs here, where the counter sees it
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        return calls

    def test_analyze_above_the_cutoff(self, capsys, calls):
        rc, out, _ = run_cli(capsys, "analyze", graph6_encode(kneser(12, 3)))
        assert rc == 0 and json.loads(out)["n"] == 220
        assert calls == []

    def test_classify(self, calls):
        for g in (complete(4), crown(8), path(5), cycle(6)):
            classify(g)
        assert calls == []

    def test_verify_all(self, capsys, calls):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert rc == 0 and out.endswith(" 0 failures\n")
        assert calls == []


class TestRecordFormat:
    # analyze writes each JSON line out by hand: it must be json.dumps of
    # the record byte for byte
    @staticmethod
    def check(line):
        for rec in cli._records_for(graph6_decode(line)):
            assert cli._format_record(rec, False, False) == json.dumps(rec) + "\n"
        return rec

    def test_every_corpus_record_matches_json_dumps(self):
        for line in CORPUS.read_text(encoding="ascii").split():
            self.check(line)

    def test_null_fields_and_a_backslash(self):
        assert self.check(graph6_encode(path(4)))["girth"] is None  # a tree
        assert self.check(KNESER_6_2)["mu"] is None  # general
        # byte 92 is a graph6 character, and JSON escapes it
        assert self.check("C\\")["graph6"] == "C\\"


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

    @pytest.mark.parametrize("argv", [["analyze", "-"], ["analyze"]])
    def test_closed_stdin_is_input_error(self, capsys, argv):
        # a process started with stdin closed has sys.stdin None
        with mock.patch.object(sys, "stdin", None):
            rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err == "ramat: stdin is closed\n"

    def test_closed_stdin_leaves_other_arguments_running(self, capsys):
        with mock.patch.object(sys, "stdin", None):
            rc, out, err = run_cli(capsys, "analyze", "C~", "-")
        assert rc == 2
        assert [json.loads(s)["graph6"] for s in out.splitlines()] == ["C~"]
        assert "stdin" in err

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
        # every line is handed to the chunk decoder once, and only the
        # one it cannot decode in a lane, a '~' header, goes through
        # graph6_decode, once
        chunks, alone = [], []
        real_chunk, real_decode = graphs._graph6_chunk, graphs.graph6_decode
        monkeypatch.setattr(cli, "_graph6_chunk",
                            lambda texts: chunks.append(texts) or real_chunk(texts))
        monkeypatch.setattr(graphs, "graph6_decode",
                            lambda text: alone.append(text) or real_decode(text))
        monkeypatch.setattr(cli, "graph6_decode", None)  # never called here
        long_c4 = "~??C" + graph6_encode(cycle(4))[1:]
        lines = [graph6_encode(crown(8)), "C~", graph6_encode(kneser(5, 2)),
                 long_c4, "A_"]
        f = tmp_path / "five.g6"
        f.write_text(">>graph6<<\n" + "\n\n".join(lines) + "\n", encoding="ascii")
        for argv in (["batch", str(f), "--workers", "1"], ["analyze", str(f)]):
            chunks.clear()
            alone.clear()
            rc, _, _ = run_cli(capsys, *argv)
            assert rc == 0
            assert chunks == [lines], argv[0]
            assert alone == [long_c4], argv[0]


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

    def test_workers_capped_at_cpu_count(self, capsys, tmp_path, monkeypatch, maps):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "_CHUNK", 8)
        lines = [graph6_encode(crown(8)), "C~", graph6_encode(kneser(5, 2))] * 40
        f = tmp_path / "many.g6"
        f.write_text("\n".join(lines) + "\n", encoding="ascii")
        _, serial, _ = run_cli(capsys, "batch", str(f), "--workers", "1")
        assert [m.workers for m in maps] == [1]  # one worker: every chunk runs here
        for argv, workers in ((["--workers", "100000"], 3), ([], 3),
                              (["--workers", "2"], 2)):
            maps.clear()
            rc, out, _ = run_cli(capsys, "batch", str(f), *argv)
            assert rc == 0 and out == serial
            assert [(m.workers, m.ahead) for m in maps] == [(workers, 2 * workers)], argv
            assert maps[0].peak == 2 * workers  # 15 chunks, at most 2 a worker
        _, serial, _ = run_cli(capsys, "analyze", "--tsv", str(f))
        maps.clear()
        monkeypatch.setattr(cli, "_CHUNK", 64)  # two chunks: a map on two workers
        rc, out, _ = run_cli(capsys, "analyze", "--tsv", str(f))
        assert rc == 0 and out == serial
        assert [m.workers for m in maps] == [2]

    def test_cpu_count_is_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._cpu_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._cpu_count() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._cpu_count() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delattr(os, "fork")  # no workers: every command runs here
        assert cli._cpu_count() == 1


REAL_MAP = cli._fork_map


def record_maps(monkeypatch):
    """Every ``_fork_map`` the CLI runs from now on, recorded: its worker
    count and ``ahead``, the args of each task in the order taken, and the
    most tasks taken ahead of the outcome yielded next.  The real map runs
    each, on at most two workers."""
    made = []

    def recording(fn, tasks, workers, ahead):
        rec = SimpleNamespace(workers=workers, ahead=ahead, taken=[], yielded=0, peak=0)
        made.append(rec)

        def taking():
            for args in tasks:
                rec.taken.append(args)
                rec.peak = max(rec.peak, len(rec.taken) - rec.yielded)
                yield args

        for item in REAL_MAP(fn, taking(), min(workers, 2), ahead):
            yield item
            rec.yielded += 1

    monkeypatch.setattr(cli, "_fork_map", recording)
    return made


@pytest.fixture
def maps(monkeypatch):
    return record_maps(monkeypatch)


class TestPipeline:
    # every kind of line an input can hold, with chunks of 4 lines, so that
    # each kind lands on both sides of a chunk boundary across three copies
    OVER_BUDGET = graph6_encode(Graph(1100, [0] * 1100))[:8]
    LINES = [">>graph6<<", "C~", "", "not-a-graph!!", graph6_encode(crown(8)),
             "\xe9", OVER_BUDGET, graph6_encode(disjoint_union([complete(3), path(3)])),
             "A_", graph6_encode(kneser(5, 2))]
    DATA = "\n".join(LINES * 3).encode("latin-1") + b"\n"

    def run(self, capsys, monkeypatch, mode, argv):
        """(exit code, stdout, stderr) of one command: 'one chunk' runs the
        whole input as one chunk; 'serial' chunks of 4 lines in this process
        and 'pool' on two forked workers."""
        monkeypatch.setattr(cli, "_CHUNK", 512 if mode == "one chunk" else 4)
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1 if mode == "serial" else 2)
        maps = record_maps(monkeypatch)
        stdin = io.TextIOWrapper(io.BytesIO(self.DATA), encoding="ascii")
        monkeypatch.setattr(sys, "stdin", stdin)
        with no_leak():
            result = run_cli(capsys, *argv)
        want = (2, 4, 4) if mode == "pool" else (1, 2, 1)  # at most 2 chunks a worker
        assert [(m.workers, m.ahead, m.peak) for m in maps] == [want], mode
        return result

    @pytest.mark.parametrize("command", ["analyze", "analyze-stdin", "analyze-tsv", "batch"])
    def test_every_mode_gives_the_same_output(self, capsys, monkeypatch, tmp_path, command):
        f = tmp_path / "mixed.g6"
        f.write_bytes(self.DATA)
        argv = {"analyze": ["analyze", str(f)],
                "analyze-stdin": ["analyze", str(f), "-", "C~", str(tmp_path)],
                "analyze-tsv": ["analyze", "--tsv", "--axis", "-"],
                "batch": ["batch", str(f)]}[command]
        want = self.run(capsys, monkeypatch, "one chunk", argv)
        rc, out, err = want
        assert rc == 2
        bad = [i + 1 for i, line in enumerate(self.LINES * 3)
               if line in ("not-a-graph!!", "\xe9", self.OVER_BUDGET)]
        source = "stdin" if command == "analyze-tsv" else str(f)
        assert [line.split(": ")[1] for line in err.splitlines()[:9]] == [
            f"{source} line {i}" for i in bad]
        assert "budget" in err
        if command == "batch":
            assert out.splitlines()[-1] == "total\t\t15"
        elif command == "analyze-stdin":
            assert len(out.splitlines()) == 2 * 18 + 1
            assert str(tmp_path) in err.splitlines()[-1]
        else:
            assert len(out.splitlines()) == 18  # 15 graphs, 3 of them in two parts
        for mode in ("serial", "pool"):
            assert self.run(capsys, monkeypatch, mode, argv) == want, mode

    def test_stdin_output_arrives_a_chunk_at_a_time(self, monkeypatch):
        read, written = [0], []

        class Stdin:  # a text stream, counting the lines read
            def __iter__(self):
                for _ in range(12):
                    read[0] += 1
                    yield "C~\n"

        class Stdout:
            def write(self, text):
                written.append((read[0], text.count("\n")))

            def flush(self):  # main flushes stdout before it returns
                pass

        monkeypatch.setattr(cli, "_CHUNK", 4)
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        monkeypatch.setattr(sys, "stdin", Stdin())
        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["analyze"]) == 0
        assert written == [(4, 4), (8, 4), (12, 4)]


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

    @pytest.mark.parametrize("argv, rc, want", [
        (["prism", "K3"], 0, {
            "theorem_id": "prism", "applicable": True, "mu": 1,
            "ingredients": {"delta": 2, "kappa": 3},
            "computed_mu": 1, "computed_status": "RA"}),
        (["negatively-neighborly", "K3"], 1, {
            "theorem_id": "negatively-neighborly", "applicable": False,
            "mu": None, "ingredients": {},
            "reason": "edge (1,2) is not negative",
            "computed_mu": None, "computed_status": "general"}),
        (["neighborly", "Q3"], 0, {
            "theorem_id": "neighborly", "applicable": True, "mu": 2,
            "ingredients": {"delta": 2, "kappa": 2},
            "computed_mu": 2, "computed_status": "1/2-RA"}),
        (["neighborly", "K3"], 1, {
            "theorem_id": "neighborly", "applicable": False, "mu": None,
            "ingredients": {}, "reason": "pair (1,2) is none, needs negative",
            "computed_mu": None, "computed_status": "general"}),
        (["neighborly", "C4", "--parts", "1,3/2,4"], 0, {
            "theorem_id": "neighborly", "applicable": True, "mu": 1,
            "ingredients": {"delta": 1, "kappa": 2},
            "computed_mu": 1, "computed_status": "RA"}),
        (["cartesian", "C5", "P3"], 0, {
            "theorem_id": "cartesian", "applicable": True, "mu": 1,
            "ingredients": {"delta": 1, "kappa1": 1, "kappa2": 1},
            "computed_mu": 1, "computed_status": "RA"}),
        (["tensor-scaled", "crown8", "1"], 0, {
            "theorem_id": "tensor-scaled", "applicable": True, "mu": 1,
            "ingredients": {"base_mu": 2, "nu": 1},
            "computed_mu": 1, "computed_status": "RA"}),
    ])
    def test_predict_check_of_each_theorem(self, capsys, argv, rc, want):
        # the graph names stand for their graph6 strings; an inapplicable
        # or mismatched prediction fails the check with exit 1
        names = {"K3": complete(3), "Q3": cube(3), "C4": cycle(4),
                 "C5": cycle(5), "P3": path(3), "crown8": crown(8)}
        argv = [graph6_encode(names[a]) if a in names else a for a in argv]
        got, out, _ = run_cli(capsys, "predict", *argv, "--check")
        assert (got, json.loads(out)) == (rc, want)

    @pytest.mark.parametrize("argv, message", [
        (["tensor-scaled", "G?]uf?"], "tensor-scaled wants a graph6 and nu"),
        (["neighborly", "Cl", "--parts", "1,2,3"],
         "--parts wants 'v1,v2/v3,v4' with two sides"),
        (["nosuch", "Bw"], "unknown theorem id 'nosuch'"),
    ])
    def test_predict_refuses_bad_arguments(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, "predict", *argv)
        assert (rc, out, err) == (2, "", f"ramat: {message}\n")

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

    def test_kernel_modulus_checked_before_the_lattice(self, capsys):
        # Kn(15,3) has 455 vertices and a 54 873-row core: a bad modulus
        # must exit 2 before any of that is built
        g6 = graph6_encode(kneser(15, 3))
        for p, msg in (("4", "not prime"), ("4000000007", "int64")):
            t0 = time.perf_counter()
            rc, out, err = run_cli(capsys, "kernel", "--mod", p, g6)
            assert (rc, out) == (2, "")
            assert msg in err
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

    def test_folded_cube_names_itself(self, capsys):
        rc, out, err = run_cli(capsys, "gen", "folded-cube", "12")
        assert rc == 2
        assert out == ""
        assert err == "ramat: folded_cube(12) is past the budget of 1024 vertices\n"

    def test_complete_tensor_refused_before_its_factors(self, capsys):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "predict", "tensor-completes", "1024,1024",
                               "--check")
        assert time.perf_counter() - t0 < 0.1
        assert rc == 2
        assert out == ""
        assert "budget" in err

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

    def test_a_failing_row_fails_the_run(self, capsys, monkeypatch):
        # the suite table looks each suite_* function up at call time
        def planted():
            yield verify._row("hermite-pivots", "kept", "[2, 2]", "[2, 2]")
            yield verify._row("hermite-pivots", "planted", "[1, 4]", "[2, 2]")

        monkeypatch.setattr(verify, "suite_hermite", planted)
        rc, out, _ = run_cli(capsys, "verify", "--suite", "hermite")
        assert rc == 1
        assert out.splitlines() == [
            "hermite-pivots\tkept\t[2, 2]\t[2, 2]\tpass",
            "hermite-pivots\tplanted\t[1, 4]\t[2, 2]\tfail",
            "# 2 checks, 1 failures",
        ]

    def test_kneser_kernel_counts_every_wrong_vector(self, capsys, monkeypatch):
        # a first entry off by one adds column 0 of C, nonzero mod p, to the
        # product, so every such vector leaves the kernel
        right = theorems.kneser_kernel_vector

        def wrong(n, p, x):
            vec = right(n, p, x)
            return ((vec[0] + 1) % p,) + vec[1:]

        monkeypatch.setattr(theorems, "kneser_kernel_vector", wrong)
        rc, out, _ = run_cli(capsys, "verify", "--suite", "kneser-kernel")
        assert rc == 1
        assert out.splitlines()[:2] == [
            "kneser-kernel\tC_Kn(6,2) * x = 0 mod 2\t0 failures\t15 failures\tfail",
            "kneser-kernel\tC_Kn(9,3) * x = 0 mod 3\t0 failures\t84 failures\tfail",
        ]

    def test_z_forms_row_lists_every_n_the_closed_form_misses(self, capsys, monkeypatch):
        closed = theorems._z_closed
        monkeypatch.setattr(theorems, "_z_closed", lambda n: closed(n) + (n in (41, 300, 512)))
        rc, out, _ = run_cli(capsys, "verify", "--suite", "z")
        assert rc == 1
        assert out.splitlines()[0] == (
            "z-forms\trecurrence vs closed form, n=2..512\t[]\t[41, 300, 512]\tfail")

    def test_small_connected_graphs_are_one_of_each_class(self):
        from support import are_isomorphic, connected_graphs_up_to_iso

        for n, count in zip(range(1, 5), (1, 1, 2, 6)):
            want = connected_graphs_up_to_iso(n)
            table = [bits for m, bits in verify.SMALL_CONNECTED if m == n]
            assert len(table) == len(want) == count
            for bits in table:
                g = verify._small_graph(n, bits)
                assert sum(are_isomorphic(g, h) for h in want) == 1
                # the first labelled graph of its class, as the descriptors say
                assert not any(are_isomorphic(g, verify._small_graph(n, b))
                               for b in range(bits))

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


class TestPooledVerify:
    """``verify --suite all`` with one suite a task of a real pool of two
    workers, against the same run in this process."""

    REF = SRC.parent / "perfbench" / "ref" / "verify_all.tsv"

    def run(self, capsys, monkeypatch, cpus):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        maps = record_maps(monkeypatch)
        with no_leak():
            result = run_cli(capsys, "verify", "--suite", "all")
        assert [(m.workers, m.ahead) for m in maps] == [(2, len(verify.SUITES))] * (cpus > 1)
        return result

    def test_pool_and_one_process_print_the_reference(self, capsys, monkeypatch):
        pooled = self.run(capsys, monkeypatch, 2)
        assert pooled == self.run(capsys, monkeypatch, 1)
        assert pooled == (0, self.REF.read_text(encoding="ascii"), "")

    def test_a_failing_row_in_a_worker_fails_the_run(self, capsys, monkeypatch):
        # the suite table looks each suite_* function up at call time, and a
        # forked worker sees the rebound name
        planted = verify._row("kneser-table", "planted", "{2: 4}", "{2: 5}")
        monkeypatch.setattr(verify, "suite_kneser_table", lambda slow=False: iter([planted]))
        ref = self.REF.read_text(encoding="ascii").splitlines()[:-1]
        table = [i for i, line in enumerate(ref) if line.startswith("kneser-table\t")]
        want = ref[:table[0]] + ["\t".join(planted)] + ref[table[-1] + 1:]
        want.append(f"# {len(want)} checks, 1 failures")
        rc, out, err = self.run(capsys, monkeypatch, 2)
        assert (rc, out.splitlines(), err) == (1, want, "")

    def test_an_input_error_in_a_worker_is_exit_2(self, capsys, monkeypatch):
        def broken():
            yield verify._row("z-forms", "kept", "[]", "[]")
            raise ValueError("planted input error")

        monkeypatch.setattr(verify, "suite_z", broken)
        serial = self.run(capsys, monkeypatch, 1)
        assert serial[0] == 2 and serial[2] == "ramat: planted input error\n"
        ref = self.REF.read_text(encoding="ascii").splitlines()
        z = next(i for i, line in enumerate(ref) if line.startswith("z-"))
        assert serial[1].splitlines() == ref[:z] + ["z-forms\tkept\t[]\t[]\tpass"]
        assert self.run(capsys, monkeypatch, 2) == serial

    def test_an_exception_in_a_worker_reaches_the_caller_unchanged(self, capsys, monkeypatch):
        def broken():
            yield verify._row("z-forms", "kept", "[]", "[]")
            raise RuntimeError("planted bug")

        monkeypatch.setattr(verify, "suite_z", broken)
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
        with no_leak(), pytest.raises(RuntimeError, match="^planted bug$") as info:
            main(["verify", "--suite", "all"])
        assert type(info.value) is RuntimeError
        ref = self.REF.read_text(encoding="ascii").splitlines()
        z = next(i for i, line in enumerate(ref) if line.startswith("z-"))
        assert capsys.readouterr().out.splitlines() == ref[:z]

    def test_every_suite_is_one_task_submitted_at_once_longest_first(
            self, capsys, monkeypatch, maps):
        assert sorted(verify.LONGEST_FIRST) == sorted(verify.SUITES)
        for cpus, workers in ((2, 2), (64, len(verify.SUITES))):
            monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
            maps.clear()
            rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
            assert rc == 0 and out == self.REF.read_text(encoding="ascii")
            assert [m.workers for m in maps] == [workers]
            assert [args[0] for args in maps[0].taken] == list(verify.LONGEST_FIRST)
            assert maps[0].peak == len(verify.SUITES)
        maps.clear()
        rc, _, _ = run_cli(capsys, "verify", "--suite", "hermite")
        assert rc == 0 and maps == []


def call(f, *args):
    return f(*args)


def wait_or_mark(directory, i, text):
    """Task 0 waits, for at most 30 s, until tasks 1-5 have each left a
    mark in ``directory``; task i > 0 leaves its mark and returns ``text``
    with i appended."""
    if i > 0:
        Path(directory, str(i)).touch()
        return text + str(i)
    deadline = time.monotonic() + 30
    while len(os.listdir(directory)) < 5:
        if time.monotonic() > deadline:
            raise TimeoutError("tasks 1-5 waited behind task 0")
        time.sleep(0.01)
    return "waited"


class TestForkPool:
    """The CLI's pool of forked workers, alone and under the commands."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, a test that waits on its pool for a minute."""
        def expire(signum, frame):
            raise TimeoutError("waited on the pool for 60 s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    def test_tasks_go_to_the_free_worker_and_messages_may_be_long(self, tmp_path):
        # task 0 holds its worker until tasks 1-5 are done, so all of them
        # must go to the other worker; each message is longer than a pipe
        # buffer, both ways
        text = "ab" * 100_000
        tasks = [(str(tmp_path), i, text) for i in range(6)]
        with no_leak():
            got = list(cli._fork_map(wait_or_mark, tasks, 2, 6))
        assert got == list(zip(tasks, [(True, "waited")]
                               + [(True, text + str(i)) for i in range(1, 6)]))

    def test_a_task_exception_reaches_the_caller_unchanged(self):
        for workers in (1, 2):  # here, and in a worker
            with no_leak():
                (_, (ok, exc)), good = cli._fork_map(int, [("x",), ("7",)], workers, 2)
            assert not ok and type(exc) is ValueError
            assert str(exc).startswith("invalid literal for int")
            assert good == (("7",), (True, 7))

    def test_a_lost_worker_fails_its_task_and_the_last_one_the_queue(self):
        tasks = [(signal.raise_signal, signal.SIGKILL), (os._exit, 3),
                 (threading.Lock,),  # a lock cannot be pickled
                 (len, "abc")]
        with no_leak():  # the lost workers' pipe ends are closed too
            got = list(cli._fork_map(call, tasks, 3, 4))
        assert [args for args, _ in got] == tasks
        for (_, (ok, exc)), how in zip(got, ("killed by signal 9", "exit status 3",
                                             "exit status 1")):
            assert not ok and type(exc) is cli.WorkerLost
            assert re.fullmatch(rf"lost worker process \d+ \({how}\)", str(exc)), exc
        assert not got[3][1][0] and str(got[3][1][1]) == "lost every worker process"

    def test_a_map_closed_early_leaves_no_child_and_no_fd(self):
        tasks = [(len, "ab"), (time.sleep, 60), (len, "abc")]
        with no_leak():
            outcomes = cli._fork_map(call, tasks, 2, 3)
            assert next(outcomes) == ((len, "ab"), (True, 2))
            outcomes.close()  # kills the worker still in its task

    # a script run as ``python -c SCRIPT COMMAND...``: the command on two
    # CPUs, exiting with a message if it leaves a child process
    TWO_CPUS = (
        "import os, sys\n"
        "from ramat import cli\n"
        "cli._cpu_count = lambda: 2\n"
        "rc = cli.main(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    sys.exit(rc)\n"
        "sys.exit('a child process is left')\n"
    )
    # the same with chunks of 4 lines, and a worker that decodes the line
    # 'A_' kills itself
    KILLER = (
        "import os, signal, sys\n"
        "from ramat import cli, verify\n"
        "decode = cli._graph6_chunk\n"
        "def killing(texts):\n"
        "    if 'A_' in texts:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return decode(texts)\n"
        "cli._graph6_chunk = killing\n"
        "verify.suite_z = lambda: os._exit(3)\n"
        "cli._CHUNK = 4\n"
    ) + TWO_CPUS

    @pytest.mark.parametrize("command", ["analyze", "batch", "verify"])
    def test_a_lost_worker_names_its_input_and_exits_1(self, capsys, tmp_path, command):
        f = tmp_path / "input.g6"
        f.write_text("C~\n" * 5 + "A_\n" + "C~\n" * 6, encoding="ascii")
        argv = {"analyze": ["analyze", "--tsv", str(f)], "batch": ["batch", str(f)],
                "verify": ["verify", "--suite", "all"]}[command]
        proc = subprocess.run(
            [sys.executable, "-c", self.KILLER, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        if command == "verify":
            where, how = "suite z", "exit status 3"
            ref = TestPooledVerify.REF.read_text(encoding="ascii").splitlines()
            out = ref[:next(i for i, line in enumerate(ref) if line.startswith("z-"))]
        else:
            where, how = f"{f} lines 5-8", "killed by signal 9"
            k4 = run_cli(capsys, "analyze", "--tsv", "C~")[1]
            out = [] if command == "batch" else k4.splitlines() * 4  # the first chunk
        assert proc.returncode == 1
        assert re.fullmatch(rf"ramat: {re.escape(where)}: lost worker process \d+ \({how}\)\n",
                            proc.stderr), proc.stderr
        assert proc.stdout.splitlines() == out

    @pytest.mark.parametrize("command", ["analyze", "batch", "verify"])
    def test_a_closed_stdout_is_exit_1_and_leaves_no_child(self, tmp_path, command):
        f = tmp_path / "input.g6"
        f.write_text("C~\n" * 2000, encoding="ascii")
        argv = {"analyze": ["analyze", str(f)], "batch": ["batch", str(f)],
                "verify": ["verify", "--suite", "all"]}[command]
        proc = subprocess.Popen(
            [sys.executable, "-c", self.TWO_CPUS, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the first line is written
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    # the environment of a script whose stdout, a pipe, is block-buffered
    BUFFERED = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                "PYTHONPATH": str(SRC)}

    def test_stdout_text_left_unflushed_before_the_pool_is_written_once(self, tmp_path):
        f = tmp_path / "input.g6"
        f.write_text("C~\n" * 600, encoding="ascii")
        script = (
            "import sys\n"
            "from ramat import cli\n"
            "cli._cpu_count = lambda: 2\n"
            "sys.stdout.write('first line\\n')  # a pipe, so block-buffered\n"
            f"sys.exit(cli.main(['analyze', '--tsv', {str(f)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=self.BUFFERED,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "first line" and len(lines) == 601
        assert proc.stdout.count("first line") == 1

    def test_workers_leave_when_the_cli_dies(self):
        # run returns once every holder of the stdout pipe has closed it,
        # the workers included, and none of them flushes the text
        script = (
            "import os, signal, sys\n"
            "from ramat import cli\n"
            "sys.stdout.write('never flushed\\n')\n"
            "outcomes = cli._fork_map(len, [('ab',), ('abc',)], 2, 2)\n"
            "assert next(outcomes) == (('ab',), (True, 2))\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=self.BUFFERED,
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (-signal.SIGKILL, "", "")


# the modules the CLI's fork map imports when it forks; the CLI never imports
# multiprocessing or concurrent.futures, whose import made its peak RSS
# about 1.6 MB larger
POOL_MODULES = ("pickle", "selectors")
OTHER_POOLS = ("multiprocessing", "concurrent.futures")
NO_FORK = "def no_fork():\n    raise SystemExit('forked')\nos.fork = no_fork\n"


class TestImports:
    def test_cli_leaves_the_process_pool_unimported(self):
        # only input of more than one chunk imports the pool, at its first use
        script = ("import sys, ramat.cli\n"
                  f"sys.exit(any(m in sys.modules for m in {POOL_MODULES + OTHER_POOLS!r}))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_imports_build_no_graph6_table(self):
        # no table is built at import, which every pass of a fresh process
        # would pay for: the graph6 lanes are made per chunk
        script = ("import gc, sys, ramat, ramat.cli\n"
                  "from ramat import intlin\n"
                  "sys.exit(sum(\n"
                  "    type(o) is intlin._SubsetSums for o in gc.get_objects()))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_python_dash_m_ramat_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ramat", "analyze", "--tsv", "-"],
            input="C~\nA@\n",
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout.startswith("C~\t")
        assert proc.stderr == ("ramat: stdin line 2: nonzero trailing bits "
                               "in graph6 body\n")

    @pytest.mark.parametrize("command, lines, one_cpu", [
        ("analyze", 3, False), ("batch", 3, False),
        ("analyze", 600, True), ("batch", 600, True),
    ])
    def test_one_chunk_or_one_cpu_runs_in_this_process(self, tmp_path, command,
                                                        lines, one_cpu):
        # one chunk of input, or a process pinned to one CPU (taskset -c 0),
        # classifies here without importing the pool
        if one_cpu and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity call on this platform")
        f = tmp_path / "input.g6"
        f.write_text("C~\n" * lines, encoding="ascii")
        script = (
            "import os, sys, ramat.cli\n" + NO_FORK
            + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else "")
            + f"rc = ramat.cli.main([{command!r}, {str(f)!r}])\n"
            f"sys.exit(rc or 3 * any(m in sys.modules for m in {POOL_MODULES!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == (lines if command == "analyze" else 8)

    @pytest.mark.parametrize("suite, one_cpu", [("hermite", False), ("all", True)])
    def test_one_suite_or_one_cpu_verifies_in_this_process(self, suite, one_cpu):
        # one suite, or all of them in a process pinned to one CPU
        # (taskset -c 0), runs here without importing the pool
        if one_cpu and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity call on this platform")
        script = (
            "import os, sys, ramat.cli\n" + NO_FORK
            + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else "")
            + f"rc = ramat.cli.main(['verify', '--suite', {suite!r}])\n"
            f"sys.exit(rc or 3 * any(m in sys.modules for m in {POOL_MODULES!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(" checks, 0 failures\n")

    def test_pooled_commands_import_no_other_pool(self, tmp_path):
        # two CPUs: analyze and batch of two chunks and verify --suite all
        # each fork a pool of two workers
        f = tmp_path / "input.g6"
        f.write_text("C~\n" * 600, encoding="ascii")
        script = (
            "import os, sys, ramat.cli\n"
            "ramat.cli._cpu_count = lambda: 2\n"
            "forks = []\n"
            "fork = os.fork\n"
            "def counted():\n"
            "    forks.append(1)\n"
            "    return fork()\n"
            "os.fork = counted\n"
            f"for argv in (['analyze', {str(f)!r}], ['batch', '--workers', '2', {str(f)!r}],\n"
            "             ['verify', '--suite', 'all']):\n"
            "    assert ramat.cli.main(argv) == 0, argv\n"
            "assert len(forks) == 6, forks\n"
            f"sys.exit(any(m in sys.modules for m in {OTHER_POOLS!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 600 + 8 + len(TestPooledVerify.REF.read_text(
            encoding="ascii").splitlines())


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
