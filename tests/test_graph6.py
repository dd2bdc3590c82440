"""graph6 codec: exact vectors, an independent cross-check, strictness."""

import random
import tracemalloc

import pytest

from iasltools import graph6
from iasltools.graph6 import Graph6Error, decode_graph6, encode_graph6

nx = pytest.importorskip("networkx")


def _nx_encode(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def _random_graph(rng, n):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    return n, edges


class TestVectors:
    def test_zero_vertices(self):
        assert decode_graph6("?") == (0, [])
        assert encode_graph6(0, []) == "?"

    def test_one_vertex(self):
        assert decode_graph6("@") == (1, [])

    def test_single_edge(self):
        assert decode_graph6("A_") == (2, [(0, 1)])
        assert encode_graph6(2, [(0, 1)]) == "A_"

    def test_two_isolated(self):
        assert decode_graph6("A?") == (2, [])

    def test_triangle(self):
        assert decode_graph6("Bw") == (3, [(0, 1), (0, 2), (1, 2)])
        assert encode_graph6(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"

    def test_column_order(self):
        # upper triangle filled column by column: bit 0 is the (0,1) slot
        assert decode_graph6("BG") == (3, [(1, 2)])


class TestRoundTrip:
    def test_all_small_graphs(self):
        for n in range(5):
            for mask in range(1 << (n * (n - 1) // 2)):
                pairs = [(u, v) for v in range(n) for u in range(v)]
                edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
                text = encode_graph6(n, edges)
                back_n, back_edges = decode_graph6(text)
                assert (back_n, set(back_edges)) == (n, set(edges))
                assert text == _nx_encode(n, edges)

    def test_fuzzed_against_independent_codec(self):
        rng = random.Random(20240817)
        for _ in range(100):
            n = rng.randrange(0, 40)
            n, edges = _random_graph(rng, n)
            text = encode_graph6(n, edges)
            assert text == _nx_encode(n, edges)
            back_n, back_edges = decode_graph6(text)
            assert (back_n, set(back_edges)) == (n, set(edges))

    def test_long_form_header(self):
        # 63 vertices needs the ~-prefixed size header
        n, edges = _random_graph(random.Random(7), 63)
        text = encode_graph6(n, edges)
        assert text.startswith("~")
        assert text == _nx_encode(n, edges)
        assert decode_graph6(text)[0] == 63

    def test_decode_accepts_independent_encodings(self):
        rng = random.Random(99)
        for _ in range(25):
            n, edges = _random_graph(rng, rng.randrange(1, 20))
            text = _nx_encode(n, edges)
            back_n, back_edges = decode_graph6(text)
            assert (back_n, set(back_edges)) == (n, set(edges))


class TestStrictness:
    def test_empty_input(self):
        with pytest.raises(Graph6Error, match="byte 0"):
            decode_graph6("")

    def test_character_below_range(self):
        with pytest.raises(Graph6Error, match="byte 1"):
            decode_graph6("B" + chr(62) + "w"[1:])

    def test_character_above_range(self):
        with pytest.raises(Graph6Error):
            decode_graph6("A" + chr(127))

    def test_truncated_body(self):
        with pytest.raises(Graph6Error, match="body"):
            decode_graph6("D")

    def test_overlong_body(self):
        err = None
        with pytest.raises(Graph6Error) as err:
            decode_graph6("A__")
        assert "byte" in str(err.value)

    def test_nonzero_padding(self):
        # n=2 uses 1 body char with 5 padding bits that must stay zero
        with pytest.raises(Graph6Error, match="padding"):
            decode_graph6("A" + chr(63 + 1))

    def test_non_minimal_size_header(self):
        # a small order written in the long form must be rejected
        long_form = "~??" + chr(63 + 2) + chr(63)
        with pytest.raises(Graph6Error):
            decode_graph6(long_form)

    @pytest.mark.parametrize("text,offset,message", [
        ("~~" + "?" * 5, 7, "truncated 8-byte size header"),
        # 258,047 = 63 * 2^12 - 1 is the largest order of the 4-byte form
        ("~~???}~~", 0, "non-minimal size header for n=258047"),
        # 258,048 needs the 8-byte form and about 5.5e9 body characters
        ("~~???~??" + "?" * 10, 18, "body too short"),
    ], ids=["truncated", "non-minimal", "short-body"])
    def test_eight_byte_size_header(self, text, offset, message):
        tracemalloc.start()
        try:
            with pytest.raises(Graph6Error, match=message) as err:
                decode_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.offset == offset
        assert str(err.value).startswith(f"byte {offset}: ")
        assert peak < 100_000

    def test_offset_attribute(self):
        try:
            decode_graph6("D")
        except Graph6Error as exc:
            assert isinstance(exc.offset, int)
        else:
            pytest.fail("expected Graph6Error")

    def test_encode_rejects_bad_edges(self):
        with pytest.raises((ValueError, Graph6Error)):
            encode_graph6(2, [(0, 2)])
        with pytest.raises((ValueError, Graph6Error)):
            encode_graph6(2, [(1, 1)])


class TestSizeHeader:
    @pytest.mark.parametrize("n, text", [
        (0, "?"), (62, "}"), (63, "~??~"), (258047, "~}~~"),
        (258048, "~~???~??"), (2 ** 36 - 1, "~~~~~~~~"),
    ])
    def test_encode_size(self, n, text):
        assert graph6._encode_size(n) == text

    @pytest.mark.parametrize("n, message", [
        (-1, "negative vertex count -1"),
        (2 ** 36, "vertex count 68719476736 exceeds graph6 limit"),
    ])
    def test_encode_size_out_of_range(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            graph6._encode_size(n)

    @pytest.mark.parametrize("n", [62, 63, 258047, 258048, 2 ** 36 - 1])
    def test_round_trip(self, n):
        text = graph6._encode_size(n)
        assert graph6._decode_size(text + "?") == (n, len(text))


class TestAcceptedIsCanonical:
    """Every string the decoder accepts is the encoding of what it decodes
    to, so a parsed graph may keep its input text as its encoding."""

    @staticmethod
    def _reencodes_or_rejects(text):
        try:
            n, edges = decode_graph6(text)
        except Graph6Error:
            return False
        assert encode_graph6(n, edges) == text, repr(text)
        return True

    def test_every_short_string_on_up_to_five_vertices(self):
        # a size character for n <= 5, then up to two characters from the
        # whole range: every body length and padding the decoder must judge
        alphabet = [chr(c) for c in range(62, 128)]
        accepted = 0
        for n in range(6):
            head = chr(63 + n)
            bodies = [""] + alphabet + [a + b for a in alphabet for b in alphabet]
            accepted += sum(self._reencodes_or_rejects(head + body) for body in bodies)
        assert accepted == sum(1 << (n * (n - 1) // 2) for n in range(6))

    @pytest.mark.parametrize("sizes", [(0, 20), (63, 70)], ids=["1-byte", "4-byte"])
    def test_fuzzed_near_valid_strings(self, sizes):
        rng = random.Random(sizes[0])
        accepted = 0
        for _ in range(400):
            n, edges = _random_graph(rng, rng.randrange(*sizes))
            chars = list(encode_graph6(n, edges))
            pos = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[pos] = chr(rng.randrange(60, 130))
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, chr(rng.randrange(60, 130)))
            accepted += self._reencodes_or_rejects("".join(chars))
        assert 0 < accepted < 400

    def test_fuzzed_headers(self):
        """A valid body behind every size-header form of its order, and
        behind a mutated 4- or 8-byte header: accepted only as encoded."""
        rng = random.Random(8)
        for _ in range(200):
            n, edges = _random_graph(rng, rng.randrange(0, 70))
            text = encode_graph6(n, edges)
            body = text[4:] if n > 62 else text[1:]
            heads = [chr(63 + n)] if n <= 62 else []
            heads.append("~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0)))
            heads.append("~~" + "".join(chr(63 + (n >> s & 63))
                                        for s in (30, 24, 18, 12, 6, 0)))
            for head in heads:
                assert self._reencodes_or_rejects(head + body) == (head + body == text)
            for head in heads[-2:]:
                chars = list(head)
                chars[rng.randrange(len(chars))] = chr(rng.randrange(62, 128))
                self._reencodes_or_rejects("".join(chars) + body)
