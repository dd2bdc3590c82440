"""graph6 codec for simple undirected graphs.

Printable ASCII encoding: a size header, then the upper triangle of the
adjacency matrix in column order, packed six bits per character with an
offset of 63.  The decoder is strict: exact body length, characters in
[63, 126], zero padding bits, and minimal-length size headers.  Errors
carry the byte offset of the offending character.
"""

from __future__ import annotations

__all__ = ["Graph6Error", "decode_graph6", "encode_graph6"]


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the position of the bad byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"byte {offset}: {message}"
        super().__init__(message)
        self.offset = offset


_OFFSET = 63
_MAX_SHORT = 62
_MAX_MEDIUM = 258047        # 63 * 2^12 - 1, as "~~" starts the 8-byte form
_MAX_LONG = 68719476735     # 2^36 - 1


def _checked(text: str, pos: int) -> int:
    c = ord(text[pos])
    if c < _OFFSET or c > 126:
        raise Graph6Error(f"character {text[pos]!r} outside graph6 range", pos)
    return c - _OFFSET


def _decode_size(text: str) -> tuple[int, int]:
    """Return (vertex count, index where the body starts)."""
    if not text:
        raise Graph6Error("empty input", 0)
    first = _checked(text, 0)
    if first != _MAX_SHORT + 1:
        return first, 1
    if len(text) < 2:
        raise Graph6Error("truncated size header", 1)
    start, end, floor = (2, 8, _MAX_MEDIUM) if text[1] == "~" else (1, 4, _MAX_SHORT)
    if len(text) < end:
        raise Graph6Error(f"truncated {end}-byte size header", len(text))
    n = 0
    for pos in range(start, end):
        n = (n << 6) | _checked(text, pos)
    if n <= floor:
        raise Graph6Error(f"non-minimal size header for n={n}", 0)
    return n, end


def _encode_size(n: int) -> str:
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    if n <= _MAX_SHORT:
        return chr(n + _OFFSET)
    if n > _MAX_LONG:
        raise ValueError(f"vertex count {n} exceeds graph6 limit")
    prefix, top = ("~", 12) if n <= _MAX_MEDIUM else ("~~", 30)
    return prefix + "".join(chr((n >> s & 63) + _OFFSET) for s in range(top, -1, -6))


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse one graph6 string into (vertex count, sorted edge list)."""
    n, body_start = _decode_size(text)
    nbits = n * (n - 1) // 2
    nbody = (nbits + 5) // 6
    have = len(text) - body_start
    if have < nbody:
        raise Graph6Error(
            f"body too short: expected {nbody} characters, found {have}", len(text)
        )
    if have > nbody:
        raise Graph6Error(
            f"body too long: expected {nbody} characters, found {have}",
            body_start + nbody,
        )
    edges: list[tuple[int, int]] = []
    bit = 0
    chunk = 0
    chunk_pos = body_start - 1
    # column order: pairs (0,1), (0,2), (1,2), (0,3), ... for j fixed, i < j
    for j in range(1, n):
        for i in range(j):
            if bit % 6 == 0:
                chunk_pos += 1
                chunk = _checked(text, chunk_pos)
            if chunk & (1 << (5 - bit % 6)):
                edges.append((i, j))
            bit += 1
    if nbits % 6:
        tail = _checked(text, len(text) - 1)
        pad = 6 - nbits % 6
        if tail & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits", len(text) - 1)
    return n, edges


def encode_graph6(n: int, edges) -> str:
    """Encode (vertex count, edge iterable) as a canonical graph6 string."""
    adjacency = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not encodable")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        adjacency.add((min(u, v), max(u, v)))
    out = [_encode_size(n)]
    chunk = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            chunk = (chunk << 1) | ((i, j) in adjacency)
            nbits += 1
            if nbits == 6:
                out.append(chr(chunk + _OFFSET))
                chunk = 0
                nbits = 0
    if nbits:
        out.append(chr((chunk << (6 - nbits)) + _OFFSET))
    return "".join(out)
