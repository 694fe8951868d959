"""Hypothesis strategies shared by the property-based tests.

The central generator builds a random *world*: a partition of objects into
entities (the ground truth) plus a random set of candidate pairs over those
objects.  Every labeling-algorithm invariant in the paper is quantified over
such worlds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from hypothesis import strategies as st

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import CandidatePair, Label, LabeledPair, Pair


@st.composite
def partitions(draw, min_objects: int = 2, max_objects: int = 12) -> Dict[str, int]:
    """A random assignment of objects o0..oN to entity ids."""
    n_objects = draw(st.integers(min_objects, max_objects))
    n_entities = draw(st.integers(1, n_objects))
    entity_of = {
        f"o{i}": draw(st.integers(0, n_entities - 1)) for i in range(n_objects)
    }
    return entity_of


@st.composite
def worlds(
    draw,
    min_objects: int = 2,
    max_objects: int = 12,
    max_pairs: int = 24,
) -> Tuple[List[CandidatePair], Dict[str, int]]:
    """(candidate pairs, ground-truth entity mapping).

    Likelihoods are drawn independently; they are *not* required to agree
    with the truth (the heuristic order must work even when the machine
    estimates are bad).
    """
    entity_of = draw(partitions(min_objects=min_objects, max_objects=max_objects))
    objects = sorted(entity_of)
    all_pairs = [
        Pair(objects[i], objects[j])
        for i in range(len(objects))
        for j in range(i + 1, len(objects))
    ]
    if not all_pairs:
        return [], entity_of
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, min_size=1, max_size=max_pairs)
    )
    candidates = [
        CandidatePair(pair, draw(st.floats(0.0, 1.0, allow_nan=False)))
        for pair in chosen
    ]
    return candidates, entity_of


@st.composite
def informed_worlds(
    draw,
    min_objects: int = 2,
    max_objects: int = 12,
    max_pairs: int = 24,
) -> Tuple[List[CandidatePair], Dict[str, int]]:
    """Like :func:`worlds`, but likelihoods correlate with the truth:
    matching pairs draw from [0.5, 1], non-matching from [0, 0.5]."""
    candidates, entity_of = draw(
        worlds(min_objects=min_objects, max_objects=max_objects, max_pairs=max_pairs)
    )
    oracle = GroundTruthOracle(entity_of)
    informed = []
    for cand in candidates:
        if oracle.label(cand.pair) is Label.MATCHING:
            likelihood = draw(st.floats(0.5, 1.0, allow_nan=False))
        else:
            likelihood = draw(st.floats(0.0, 0.5, allow_nan=False))
        informed.append(CandidatePair(cand.pair, likelihood))
    return informed, entity_of


@st.composite
def consistent_labelings(
    draw, min_objects: int = 2, max_objects: int = 10, max_pairs: int = 20
) -> List[LabeledPair]:
    """A consistent set of labeled pairs (induced by a random partition)."""
    candidates, entity_of = draw(
        worlds(min_objects=min_objects, max_objects=max_objects, max_pairs=max_pairs)
    )
    oracle = GroundTruthOracle(entity_of)
    return [LabeledPair(c.pair, oracle.label(c.pair)) for c in candidates]


def flipped_answers(world, share: float, seed: int):
    """An ``answer_fn`` answering ``world``'s truth, with a seeded ``share``
    of its pairs flipped (the same pairs on every call)."""
    candidates, entity_of = world
    truth = GroundTruthOracle(entity_of)
    rng = random.Random(seed)
    flipped = {c.pair for c in candidates if rng.random() < share}
    flip = {Label.MATCHING: Label.NON_MATCHING, Label.NON_MATCHING: Label.MATCHING}

    def answer(pair):
        label = truth.label(pair)
        return flip[label] if pair in flipped else label

    return answer
