"""The one cancellation routine against pair-by-pair reduction."""

from itertools import product

import pytest

from affinecrystal.brackets import CLOSE, OPEN, BracketString, scan
from helpers import oracle_scan


@pytest.mark.parametrize("length", range(11))
def test_scan_matches_reduction(length):
    for sides in product((OPEN, CLOSE), repeat=length):
        tokens = [(idx, side) for idx, side in enumerate(sides)]
        assert scan(tokens) == oracle_scan(sides), "".join(sides)


def test_bracket_string_reports_scan():
    s = BracketString.build(
        [("a", CLOSE), ("b", OPEN), ("c", CLOSE), ("d", OPEN), ("e", OPEN)]
    )
    assert str(s) == ")()(("
    assert (s.eps, s.phi) == (1, 2)
    assert s.rightmost_unmatched_close() == 0
    assert s.leftmost_unmatched_open() == 3
    empty = BracketString.build([])
    assert (empty.eps, empty.phi) == (0, 0)
    assert empty.rightmost_unmatched_close() is None
    assert empty.leftmost_unmatched_open() is None
