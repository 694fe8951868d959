"""Shared fixtures: the paper's running example (Figure 3) and helpers.

Figure 3 of the paper defines six objects o1..o6 where {o1, o2, o3} are one
entity, {o4, o5} another, and o6 is a singleton, plus eight candidate pairs
p1..p8 listed in decreasing likelihood:

    p1 = (o1, o2)  matching
    p2 = (o2, o3)  matching
    p3 = (o1, o6)  non-matching
    p4 = (o1, o3)  matching      (deducible from p1, p2)
    p5 = (o4, o5)  matching
    p6 = (o4, o6)  non-matching  (deducible from p5, p8)
    p7 = (o2, o4)  non-matching
    p8 = (o5, o6)  non-matching  (deducible from p5, p6)

Example 2 shows the optimal cost is six crowdsourced pairs; Example 5 shows
the parallel labeler publishes {p1, p2, p3, p5, p6} then {p7}.
"""

from __future__ import annotations

import pytest

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import CandidatePair, Label, LabeledPair, Pair

from .worker_hosts import SHARED_HOSTS

FIGURE3_ENTITIES = {
    "o1": "A",
    "o2": "A",
    "o3": "A",
    "o4": "B",
    "o5": "B",
    "o6": "C",
}

FIGURE3_PAIRS = {
    "p1": Pair("o1", "o2"),
    "p2": Pair("o2", "o3"),
    "p3": Pair("o1", "o6"),
    "p4": Pair("o1", "o3"),
    "p5": Pair("o4", "o5"),
    "p6": Pair("o4", "o6"),
    "p7": Pair("o2", "o4"),
    "p8": Pair("o5", "o6"),
}

FIGURE3_LIKELIHOODS = {
    "p1": 0.95,
    "p2": 0.90,
    "p3": 0.85,
    "p4": 0.80,
    "p5": 0.75,
    "p6": 0.70,
    "p7": 0.65,
    "p8": 0.60,
}


@pytest.fixture(scope="session", autouse=True)
def stop_shared_worker_hosts():
    """Stop the shared shard worker hosts (if any test started them)."""
    yield
    SHARED_HOSTS.close()


@pytest.fixture
def figure3_truth() -> GroundTruthOracle:
    """Ground-truth oracle for the Figure 3 objects."""
    return GroundTruthOracle(FIGURE3_ENTITIES)


@pytest.fixture
def figure3_candidates() -> list[CandidatePair]:
    """The eight candidate pairs p1..p8, already in decreasing likelihood."""
    return [
        CandidatePair(FIGURE3_PAIRS[name], FIGURE3_LIKELIHOODS[name])
        for name in ("p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8")
    ]


@pytest.fixture
def figure3_pairs() -> dict[str, Pair]:
    """Name -> Pair mapping for p1..p8."""
    return dict(FIGURE3_PAIRS)


@pytest.fixture
def example1_labeled() -> list[LabeledPair]:
    """The seven labeled pairs of paper Example 1 / Figure 2.

    Matching: (o1,o2), (o3,o4), (o4,o5); non-matching: (o1,o6), (o2,o3),
    (o3,o7), (o5,o6).
    """
    matching = [("o1", "o2"), ("o3", "o4"), ("o4", "o5")]
    non_matching = [("o1", "o6"), ("o2", "o3"), ("o3", "o7"), ("o5", "o6")]
    labeled = [LabeledPair(Pair(a, b), Label.MATCHING) for a, b in matching]
    labeled += [LabeledPair(Pair(a, b), Label.NON_MATCHING) for a, b in non_matching]
    return labeled
