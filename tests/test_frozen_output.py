"""Output guard: the factored polynomials printed for every connected graph
with at most 5 vertices and 8 edges, at k=3, at k=4 (at most 7 edges) and
for beta, must match the strings recorded in frozen_factorizations.json
byte for byte.
"""

import json
from pathlib import Path

import pytest

from hyperspectra.graphs import Graph
from hyperspectra.spectrum import beta, char_poly_power

FROZEN = Path(__file__).resolve().parent / "frozen_factorizations.json"


def _records():
    with open(FROZEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "column, compute",
    [
        ("k3", lambda g: char_poly_power(g, 3)),
        ("k4", lambda g: char_poly_power(g, 4)),
        ("beta", beta),
    ],
)
def test_to_text_matches_frozen(column, compute):
    mismatches = []
    for record in _records():
        if record[column] is None:
            continue
        g = Graph(record["n"], tuple(map(tuple, record["edges"])))
        text = compute(g).to_text()
        if text != record[column]:
            mismatches.append((record["n"], record["edges"], text, record[column]))
    assert not mismatches
