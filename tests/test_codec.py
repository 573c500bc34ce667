"""Path encoding: two-bit codes, concatenation layout, bijectivity."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmaze import codec
from qmaze.maze import Direction
from reference import encode_direction, encode_path


def test_direction_codes():
    assert encode_direction(Direction.N) == 0b00
    assert encode_direction(Direction.E) == 0b01
    assert encode_direction(Direction.S) == 0b10
    assert encode_direction(Direction.W) == 0b11


def test_direction_round_trip():
    for d in Direction:
        assert codec.decode_index(encode_direction(d), 1) == (d,)
    with pytest.raises(ValueError):
        codec.decode_index(4, 1)


def test_encode_path_layout():
    # First move in the most significant pair.
    assert encode_path([Direction.S, Direction.E]) == 0b1001
    assert encode_path([Direction.N, Direction.E, Direction.S]) == 0b000110
    assert encode_path([]) == 0


def test_decode_index_examples():
    assert codec.decode_index(9, 2) == (Direction.S, Direction.E)
    assert codec.decode_index(0, 3) == (Direction.N, Direction.N, Direction.N)


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        codec.decode_index(16, 2)
    with pytest.raises(ValueError):
        codec.decode_index(-1, 2)


@pytest.mark.parametrize("n", range(0, 7))
def test_bijection_exhaustive(n):
    seen = set()
    for u in range(codec.path_count(n)):
        path = codec.decode_index(u, n)
        assert len(path) == n
        assert encode_path(path) == u
        seen.add(path)
    assert len(seen) == 4**n


@given(st.lists(st.sampled_from(list(Direction)), max_size=codec.MAX_PATH_LENGTH))
def test_encode_decode_round_trip(path):
    u = encode_path(path)
    assert codec.decode_index(u, len(path)) == tuple(path)


def test_path_count():
    assert codec.path_count(2) == 16
    assert codec.path_count(0) == 1
    assert codec.path_count(6) == 4096
    with pytest.raises(ValueError):
        codec.path_count(codec.MAX_PATH_LENGTH + 1)
    with pytest.raises(ValueError):
        codec.path_count(-1)


def test_renderings():
    assert codec.path_letters([Direction.S, Direction.E]) == "SE"
    assert codec.path_bits(9, 2) == "1001"
    assert codec.path_bits(0, 0) == ""
