"""Families, structural queries, and the graph6 codec (cross-checked against
networkx's independent implementation of the format)."""

import pickle
import random
import time
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat import graphs
from ramat.graphs import (
    Graph,
    binary_graph,
    complement,
    complete,
    complete_bipartite,
    connected_components,
    crown,
    cube,
    cycle,
    degree,
    distance,
    folded_cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    is_neighborhood_distinguishable,
    kneser,
    kneser_vertices,
    path,
    read_graph6_lines,
    subgraph,
)

from support import (
    are_isomorphic,
    connected_8_vertex_file,
    random_graph,
    textbook_graph6,
)


class TestFamilies:
    def test_path_cycle_complete(self):
        assert path(1).n == 1 and path(1).edge_count() == 0
        assert path(5).edge_count() == 4
        assert cycle(5).edge_count() == 5
        assert complete(6).edge_count() == 15
        assert complete_bipartite(3, 4).edge_count() == 12

    def test_parameter_validation(self):
        for bad in (lambda: path(0), lambda: cycle(2), lambda: crown(7),
                    lambda: crown(2), lambda: kneser(2, 3),
                    lambda: binary_graph(1), lambda: folded_cube(1)):
            with pytest.raises(ValueError):
                bad()

    def test_cube(self):
        q3 = cube(3)
        assert q3.n == 8
        assert all(degree(q3, v) == 3 for v in q3.vertices())
        assert girth(q3) == 4

    def test_crown_is_cube3_on_8_vertices(self):
        assert are_isomorphic(crown(8), cube(3))

    def test_crown_structure(self):
        g = crown(10)
        # adjacent vertices share no neighbors; distance-2 pairs share n-2
        for u, v in g.edges():
            assert g.closed_mask(u) & g.closed_mask(v) == 1 << u - 1 | 1 << v - 1
        for u, v in combinations(g.vertices(), 2):
            if distance(g, u, v) == 2:
                assert (g.closed_mask(u) & g.closed_mask(v)).bit_count() == 5 - 2

    def test_kneser_petersen(self):
        g = kneser(5, 2)
        assert g.n == 10
        assert all(degree(g, v) == 3 for v in g.vertices())
        assert girth(g) == 5

    def test_kneser_degree_formula(self):
        for n, k in ((5, 2), (6, 2), (7, 3), (8, 2)):
            g = kneser(n, k)
            want = comb(n - k, k)
            assert all(degree(g, v) == want for v in g.vertices())

    def test_kneser_vertex_order_colex(self):
        assert kneser_vertices(4, 2) == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
        ]

    def test_folded_cube(self):
        fc = folded_cube(5)
        assert fc.n == 16
        assert all(degree(fc, v) == 5 for v in fc.vertices())
        assert girth(fc) == 4
        assert are_isomorphic(folded_cube(3), complete(4))

    def test_binary_graph_blocks(self):
        g = binary_graph(8)
        assert g.n == 11
        # both blocks are cliques
        for u, v in combinations(range(1, 9), 2):
            assert g.has_edge(u, v)
        for u, v in combinations(range(9, 12), 2):
            assert g.has_edge(u, v)
        # vertex for the number 0 has no cross edges
        assert all(not g.has_edge(1, b) for b in range(9, 12))
        # number 2 (binary 1) touches exactly the low bit
        assert g.has_edge(2, 9)
        assert not g.has_edge(2, 10)

    def test_binary_graph_smallest_is_path(self):
        assert are_isomorphic(binary_graph(2), path(3))

    def test_complement(self):
        g = complement(complete(4))
        assert g.edge_count() == 0
        assert complement(g).edge_count() == 6
        c5 = cycle(5)
        assert are_isomorphic(complement(c5), c5)

    def test_generators_simple_and_symmetric(self):
        graphs = [
            path(6), cycle(7), complete(5), complete_bipartite(2, 3),
            cube(4), folded_cube(4), crown(12), kneser(6, 2),
            binary_graph(10), complement(kneser(5, 2)),
        ]
        for g in graphs:
            for v in range(g.n):
                assert not g.adj[v] >> v & 1
                for w in range(g.n):
                    assert bool(g.adj[v] >> w & 1) == bool(g.adj[w] >> v & 1)


class TestQueries:
    def test_closed_neighborhood(self):
        assert complete(3).closed_mask(1) == 0b111
        assert path(3).closed_mask(1) & path(3).closed_mask(3) == 0b010

    def test_girth(self):
        assert girth(path(5)) is None
        assert girth(cycle(3)) == 3
        assert girth(cycle(9)) == 9
        assert girth(cube(3)) == 4
        assert girth(complete(4)) == 3
        assert girth(complete_bipartite(2, 3)) == 4

    def test_girth_matches_bruteforce(self):
        def brute_girth(g):
            best = None
            for size in range(3, g.n + 1):
                for verts in combinations(range(1, g.n + 1), size):
                    # cycle on verts in some order: check all rotations
                    from itertools import permutations

                    for perm in permutations(verts[1:]):
                        order = (verts[0],) + perm
                        if all(
                            g.has_edge(order[i], order[(i + 1) % size])
                            for i in range(size)
                        ):
                            return size
            return best

        rng = random.Random(1)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 7), rng.random())
            assert girth(g) == brute_girth(g)

    def test_bipartite(self):
        assert is_bipartite(crown(10)) == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
        assert is_bipartite(cycle(5)) is None
        assert is_bipartite(cube(4)) is not None
        parts = is_bipartite(path(4))
        assert parts == ((1, 3), (2, 4))

    def test_connectivity(self):
        assert is_connected(cycle(5))
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert not is_connected(g)
        assert connected_components(g) == [(1, 2), (3, 4)]

    def test_distance(self):
        assert distance(path(6), 1, 6) == 5
        assert distance(cycle(6), 1, 4) == 3
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert distance(g, 1, 3) is None

    def test_neighborhood_distinguishable(self):
        assert not is_neighborhood_distinguishable(complete(3))
        assert is_neighborhood_distinguishable(path(4))
        assert is_neighborhood_distinguishable(cube(3))

    def test_subgraph(self):
        g = subgraph(cycle(5), (1, 2, 3))
        assert g.edges() == [(1, 2), (2, 3)]
        assert subgraph(cycle(5), iter((3, 1, 2))).edges() == [(1, 3), (2, 3)]

    def test_subgraph_refuses_repeated_or_out_of_range_vertices(self):
        for verts in ((1, 2, 1), (0, 2), (1, 6)):
            with pytest.raises(ValueError):
                subgraph(cycle(5), verts)


def long_header(n: int) -> str:
    """The four-byte graph6 size header of n."""
    return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))


# one size header per case of the decoder: the one-byte header up to 32
# vertices (read through tables) and past 32 (the column loop), and the
# four-byte header on both sides
G6_HEADERS = [*((n, chr(63 + n)) for n in (*range(1, 13), 32, 33)),
              (5, long_header(5)), (70, long_header(70))]


class TestGraph6:
    def test_known_kernel_witness_strings_decode(self):
        g = graph6_decode("I?otQji\\O")
        assert g.n == 10
        assert is_connected(g)
        g2 = graph6_decode("ICQrThix_")
        assert g2.n == 10

    def test_round_trip_known_strings(self):
        for s in ("I?otQji\\O", "ICQrThix_", "H?zTb_{", "HCOfFz~"):
            assert graph6_encode(graph6_decode(s)) == s

    def test_header_stripped(self):
        assert graph6_decode(">>graph6<<C~") == complete(4)

    def test_k3_round_trip(self):
        assert graph6_decode(graph6_encode(complete(3))) == complete(3)

    def test_against_networkx(self):
        # every n up to 70, past the 62 vertices of the one-byte size header
        rng = random.Random(2)
        for n in [*range(1, 71)] * 2:
            g = random_graph(rng, n, rng.random())
            mine = graph6_encode(g)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from((u - 1, v - 1) for u, v in g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert mine == theirs
            assert mine.startswith("~") == (n > 62)
            assert graph6_decode(mine) == g
            back = nx.from_graph6_bytes(mine.encode())
            assert set(back.edges()) == {
                (u - 1, v - 1) for u, v in g.edges()
            }

    def test_one_vertex_round_trip(self):
        g = Graph(1, [0])
        assert graph6_encode(g) == "@"
        assert graph6_decode("@") == g
        assert graph6_decode("~??@") == g  # the long size header, n = 1

    def test_long_header(self):
        g = path(70)
        s = graph6_encode(g)
        assert s.startswith(chr(126))
        assert graph6_decode(s) == g
        h = nx.path_graph(70)
        assert s == nx.to_graph6_bytes(h, header=False).decode().strip()

    @given(st.integers(1, 16), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_random(self, n, rnd):
        g = random_graph(rnd, n, 0.4)
        assert graph6_decode(graph6_encode(g)) == g

    def test_malformed_inputs(self):
        printable = r" outside printable range 63\.\.126$"
        for line, message in (
            ("", r"^empty graph6 string$"),
            (" \t", r"^empty graph6 string$"),
            (">>graph6<<", r"^empty graph6 string$"),
            (">>graph6<< \t ", r"^empty graph6 string$"),
            ("C", r"^graph6 body length 0 does not match 1 for n=4$"),
            # only space, tab, CR and LF are stripped: every other control
            # byte is refused where it stands, at either end too
            ("B\x1f", r"^graph6 byte 31" + printable),
            ("\x1fC~", r"^graph6 byte 31" + printable),
            ("C~\x1f", r"^graph6 byte 31" + printable),
            ("\x0bC~", r"^graph6 byte 11" + printable),
            ("C~\x0c\n", r"^graph6 byte 12" + printable),
            (">>graph6<<\x1cC~", r"^graph6 byte 28" + printable),
            ("B\x1b", r"^graph6 byte 27" + printable),
            ("A ", r"^graph6 body length 0 does not match 1 for n=2$"),
            ("A \x7f", r"^graph6 byte 32" + printable),
            # the first byte outside the range is named, wherever it is
            ("D? ~\x7f", r"^graph6 byte 32" + printable),
            ("\x00C~", r"^graph6 byte 0" + printable),
            ("\x7f", r"^graph6 byte 127" + printable),
            ("~?\x7f ", r"^graph6 byte 127" + printable),
            ("~?? ~~", r"^graph6 byte 32" + printable),
            # nonzero trailing bits: n=2 needs 1 bit; 6-bit group 000001 is bad
            ("A@", r"^nonzero trailing bits in graph6 body$"),
            ("?", r"^graph6 vertex count 0 out of supported range$"),
            ("~???", r"^graph6 vertex count 0 out of supported range$"),
            ("~", r"^truncated graph6 size header$"),
            ("~?", r"^truncated graph6 size header$"),
            ("~??", r"^truncated graph6 size header$"),
            ("~~", r"^truncated graph6 size header$"),
            ("~~??", r"^graph6 sizes beyond 2\^18 vertices not supported$"),
            ("~~~~~~~~", r"^graph6 sizes beyond 2\^18 vertices not supported$"),
            ("~?O@", r"^a graph6 input of 1025 vertices is past the budget "
                     r"of 1024 vertices$"),
        ):
            with pytest.raises(ValueError, match=message):
                graph6_decode(line)

    def test_header_prefix_and_whitespace(self):
        for line in (">>graph6<<C~", " >>graph6<< \tC~\n", "C~ \r\n",
                     "\r\n\t C~\t"):
            assert graph6_decode(line) == complete(4)

    @pytest.mark.parametrize("n, head", G6_HEADERS)
    def test_exact_body_messages(self, n, head):
        k = (n * (n - 1) // 2 + 5) // 6
        pad = 6 * k - n * (n - 1) // 2
        # every last body byte: accepted exactly when its padding bits are 0
        for b in range(63, 127) if k else ():
            line = head + "?" * (k - 1) + chr(b)
            if (b - 63) % (1 << pad):
                with pytest.raises(ValueError, match=r"^nonzero trailing bits "
                                   r"in graph6 body$"):
                    graph6_decode(line)
            else:
                assert graph6_decode(line) == textbook_graph6(line)
        # a body one byte short or long; its padding bits are set too, and
        # the length is named first
        for m in (k - 1, k + 1) if k else (1,):
            with pytest.raises(ValueError, match=rf"^graph6 body length {m} "
                               rf"does not match {k} for n={n}$"):
                graph6_decode(head + "~" * m)
        # the first byte outside 63..126, ahead of a wrong length, and in the
        # size header ahead of the body
        for at in range(k + 1):
            line = head + "~" * at + " \x7f" + "~" * (k - at)
            with pytest.raises(ValueError, match=r"^graph6 byte 32 outside"):
                graph6_decode(line)
        line = head[:-1] + "\x7f" + "\x00" * k
        with pytest.raises(ValueError, match=r"^graph6 byte 127 outside"):
            graph6_decode(line)

    def test_every_labelled_graph_on_up_to_five_vertices(self):
        for n in range(1, 6):
            pairs = list(combinations(range(1, n + 1), 2))
            for bits in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [p for k, p in enumerate(pairs) if bits >> k & 1])
                s = graph6_encode(g)
                assert graph6_decode(s) == textbook_graph6(s) == g, s
                s = long_header(n) + s[1:]
                assert graph6_decode(s) == textbook_graph6(s) == g, s

    def test_every_corpus_line(self):
        for line in connected_8_vertex_file().read_text().split():
            assert graph6_decode(line) == textbook_graph6(line), line

    def test_random_graphs_across_the_table_and_header_cutoffs(self):
        rng = random.Random(30)
        for n in (*range(1, 18), 31, 32, 33, 34, 61, 62, 63, 64):
            for _ in range(8):
                s = graph6_encode(random_graph(rng, n, rng.random()))
                assert s.startswith("~") == (n > 62)
                assert graph6_decode(s) == textbook_graph6(s), s

    def test_over_budget_refused_from_size_header(self):
        # a 3000-vertex line is 750 KB; its size header alone refuses it
        n = 3000
        header = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
        line = header + "?" * ((n * (n - 1) // 2 + 5) // 6)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="a graph6 input of 3000 vertices "
                           "is past the budget of 1024 vertices"):
            graph6_decode(line)
        assert time.perf_counter() - t0 < 0.1

    def test_trailing_bits_strictness(self):
        # 'A_' encodes K2: size byte 'A' (n=2), body '_' = 63+32 -> bit 1
        assert graph6_decode("A_") == complete(2)

    def test_read_lines_reports_errors(self):
        lines = ["C~", "", ">>graph6<<", "notgraph6!!", "A_"]
        out = list(read_graph6_lines(lines))
        assert isinstance(out[0][1], Graph)
        assert out[0][0] == 1
        assert isinstance(out[1][1], ValueError)
        assert out[1][0] == 4
        assert isinstance(out[2][1], Graph)

    def test_read_lines_skip_only_graph6_whitespace(self):
        # a line of a control byte other than tab, CR or LF is no blank
        # line: it is read, and refused as non-printable
        lines = ["\x0c\n", " \t\r\n", "C~\x1f\n", "\t>>graph6<<\r\n", "A_\n"]
        out = list(read_graph6_lines(lines))
        assert [lineno for lineno, _ in out] == [1, 3, 5]
        for (_, exc), byte in zip(out, (12, 31)):
            assert str(exc) == f"graph6 byte {byte} outside printable range 63..126"
        assert out[2][1] == complete(2)


def decode_alone(text):
    """graph6_decode of one line, or its error as (type, message)."""
    try:
        return graph6_decode(text)
    except ValueError as exc:
        return type(exc), str(exc)


def lane_masks(adj, n, count):
    """The masks of lane k of the vertex ints adj, for each of ``count``
    lanes, as tuples: lanes of 8, 16 or 32 bits, at least n + 1."""
    w = next(w for w in (8, 16, 32) if w > n)
    return [tuple(a >> w * k & (1 << w) - 1 for a in adj) for k in range(count)]


class TestGraph6Chunk:
    # graphs._graph6_chunk decodes the lines of one size header together,
    # into lanes; every line decodes as it does alone
    @staticmethod
    def check(texts):
        decoded, lanes = graphs._graph6_chunk(texts)
        for text, got in zip(texts, decoded, strict=True):
            want = decode_alone(text)
            if isinstance(want, Graph):
                assert got == want == textbook_graph6(
                    text.removeprefix(">>graph6<<")), text
                assert type(got.adj) is tuple and hash(got) == hash(want)
            else:
                assert (type(got), str(got)) == want, text
        for n, (picked, adj) in lanes.items():
            assert len(adj) == n
            assert lane_masks(adj, n, len(picked)) == [decoded[i].adj for i in picked]
        return decoded, lanes

    def test_every_labelled_graph_on_up_to_five_vertices(self):
        texts = []
        for n in range(1, 6):
            pairs = list(combinations(range(1, n + 1), 2))
            texts += [graph6_encode(Graph.from_edges(
                n, [p for k, p in enumerate(pairs) if bits >> k & 1]))
                for bits in range(1 << len(pairs))]
        _, lanes = self.check(texts)
        assert sorted(lanes) == [1, 2, 3, 4, 5]
        assert sum(len(picked) for picked, _ in lanes.values()) == len(texts)

    def test_random_graphs_up_to_past_the_cutoff(self):
        rng = random.Random(32)
        texts = [graph6_encode(random_graph(rng, n, rng.random()))
                 for n in range(1, graphs._LANES_MAX_N + 4) for _ in range(5)]
        rng.shuffle(texts)
        _, lanes = self.check(texts)
        # only the one-byte headers of at most 31 vertices share lanes
        assert sorted(lanes) == list(range(1, graphs._LANES_MAX_N + 1))

    def test_every_corpus_line(self):
        lines = connected_8_vertex_file().read_text().split()
        for start in range(0, len(lines), 512):
            _, lanes = self.check(lines[start:start + 512])
            assert list(lanes) == [8]

    def test_bad_lines_in_a_lane_group(self):
        # lines with the header of 8 vertices and the length of its group,
        # that each decode alone or not at all: a non-ASCII character, the
        # character a file's undecodable byte becomes, a control byte, a
        # nonzero padding bit, and a copy with the '~' header or the
        # '>>graph6<<' prefix, among good lines; also a line one byte short
        good = [graph6_encode(g) for g in (crown(8), cycle(8), path(8), complete(8))]
        bad = ["G?zTb\xe9", "G?z\ufffdb_", "G?z\x1fb_", "G?zTb`", "~??G" + good[0][1:],
               ">>graph6<<" + good[1], "G?zTb", "\x7fG?zTb"]
        texts = [good[0], bad[0], good[1], bad[1], bad[2], good[2], bad[3],
                 bad[4], bad[5], bad[6], bad[7], good[3]]
        decoded, lanes = self.check(texts)
        assert list(lanes) == [8]
        assert lanes[8][0] == [0, 2, 5, 11]
        assert [str(x) for x in decoded if isinstance(x, ValueError)] == [
            "'ascii' codec can't encode character '\\xe9' in position 5: "
            "ordinal not in range(128)",
            "'ascii' codec can't encode character '\\ufffd' in position 3: "
            "ordinal not in range(128)",
            "graph6 byte 31 outside printable range 63..126",
            "nonzero trailing bits in graph6 body",
            "graph6 body length 4 does not match 5 for n=8",
            "graph6 byte 127 outside printable range 63..126"]
        # the '~' and '>>graph6<<' copies decode alone, to the same graphs
        assert decoded[7] == decoded[0] and decoded[8] == decoded[2]

    def test_a_group_of_bad_lines_only(self):
        decoded, lanes = self.check(["G?zTb`", "C\x1f"])
        assert lanes == {}
        assert all(isinstance(x, ValueError) for x in decoded)

    def test_one_line_is_a_lane_of_its_own(self):
        assert graphs._graph6_chunk(["A_"]) == ([complete(2)], {2: ([0], [2, 1])})


class TestGraphBasics:
    def test_rejects_asymmetric_and_loops(self):
        # the builders skip these checks; the public constructor keeps them
        for adj, message in (((2, 0), "not symmetric"), ((1, 0), "self-loop"),
                             ((2, 5), "out of range")):
            with pytest.raises(ValueError, match=message):
                Graph(2, adj)
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_unpickling_checks_the_masks(self):
        # builders skip the check; a pickled graph goes through it again
        bad = Graph._of_masks(2, (2, 0))
        with pytest.raises(ValueError, match="not symmetric"):
            pickle.loads(pickle.dumps(bad))

    def test_float_masks_are_refused(self):
        with pytest.raises(TypeError):
            Graph(2, [2.0, 1.0])
        with pytest.raises(TypeError):
            Graph(2, [2.5, 1])
        assert Graph(2, [2, True]) == complete(2)

    def test_immutability_and_equality(self):
        g = complete(3)
        with pytest.raises(AttributeError):
            g.n = 4
        assert g == complete(3)
        assert g != complete(4)
        assert hash(g) == hash(complete(3))

    def test_pickle_round_trip(self):
        g = kneser(7, 2)
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert hash(back) == hash(g)
        with pytest.raises(AttributeError):
            back.n = 4
