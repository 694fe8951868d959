"""Expected number of crowdsourced pairs for a labeling order (Section 4.2).

When each pair carries an independent probability of being matching, the
number of crowdsourced pairs required by an order ``omega`` is a random
variable ``C(omega)``.  The paper (Example 4) computes its expectation by
enumerating the *consistent* label assignments (transitivity rules out e.g.
two matching edges and one non-matching edge on a triangle), weighting each
by its probability, renormalising over the consistent mass, and summing the
per-pair probabilities of being crowdsourced.

Finding the order minimising ``E[C(omega)]`` is NP-hard (Vesdapunt et al.,
VLDB 2014) — the original SIGMOD version's optimality claim was withdrawn in
the revision we reproduce.  This module provides:

* exact enumeration of consistent assignments with their weights;
* exact ``E[C(omega)]`` for a given order (exponential in #pairs; fine for
  the small instances it is meant for);
* brute-force search for the expected-optimal order (factorial; tiny n), used
  to validate the likelihood-descending heuristic in tests and benchmarks.

Everything here is deliberately specification-grade: the production path uses
the heuristic order from ``repro.core.ordering``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cluster_graph import ClusterGraph
from .pairs import CandidatePair, Label, Pair
from .union_find import UnionFind

MAX_ENUMERATION_PAIRS = 20
MAX_BRUTE_FORCE_PAIRS = 8


def _check_enumerable(n_pairs: int) -> None:
    if n_pairs > MAX_ENUMERATION_PAIRS:
        raise ValueError(
            f"exact enumeration over {n_pairs} pairs would visit 2^{n_pairs} "
            f"assignments; the limit is {MAX_ENUMERATION_PAIRS}"
        )


def _assignment_is_consistent(pairs: Sequence[Pair], labels: Sequence[Label]) -> bool:
    uf = UnionFind()
    for pair, label in zip(pairs, labels):
        if label is Label.MATCHING:
            uf.union(pair.left, pair.right)
    for pair, label in zip(pairs, labels):
        if label is Label.NON_MATCHING and uf.connected(pair.left, pair.right):
            return False
    return True


@dataclass(frozen=True)
class WeightedAssignment:
    """One consistent labeling of the candidate pairs with its probability
    weight (already renormalised over the consistent assignments)."""

    labels: Tuple[Label, ...]
    weight: float

    def as_mapping(self, pairs: Sequence[Pair]) -> Dict[Pair, Label]:
        return dict(zip(pairs, self.labels))


def enumerate_consistent_assignments(
    candidates: Sequence[CandidatePair],
) -> List[WeightedAssignment]:
    """All consistent assignments with renormalised probability weights.

    Each pair is independently matching with its candidate likelihood; the
    joint probability of an assignment is the product, and weights are
    renormalised so the consistent assignments sum to 1 (exactly the
    computation in the paper's Example 4).

    Raises:
        ValueError: if there are too many pairs to enumerate, or if no
            consistent assignment has positive probability.
    """
    _check_enumerable(len(candidates))
    pairs = [c.pair for c in candidates]
    results: List[Tuple[Tuple[Label, ...], float]] = []
    total = 0.0
    for combo in itertools.product((Label.MATCHING, Label.NON_MATCHING), repeat=len(pairs)):
        weight = 1.0
        for cand, label in zip(candidates, combo):
            weight *= cand.likelihood if label is Label.MATCHING else 1.0 - cand.likelihood
        if weight == 0.0:
            continue
        if not _assignment_is_consistent(pairs, combo):
            continue
        results.append((combo, weight))
        total += weight
    if not results or total <= 0.0:
        raise ValueError("no consistent assignment has positive probability")
    return [WeightedAssignment(labels, weight / total) for labels, weight in results]


def crowdsourced_count(
    order: Sequence[CandidatePair], assignment: Dict[Pair, Label]
) -> int:
    """``C(omega)`` under a fixed true assignment: how many pairs of the
    order the sequential labeler crowdsources."""
    return sum(crowdsourced_indicator([c.pair for c in order], assignment))


def crowdsourced_indicator(
    order: Sequence[Pair], assignment: Dict[Pair, Label]
) -> List[bool]:
    """For each position i of ``order``: is pair i crowdsourced under the
    assignment?  (True = crowdsourced, False = deduced.)"""
    graph = ClusterGraph()
    flags: List[bool] = []
    for pair in order:
        if graph.deducible(pair):
            flags.append(False)
        else:
            flags.append(True)
            graph.add(pair, assignment[pair])
    return flags


def expected_cost(order: Sequence[CandidatePair]) -> float:
    """Exact ``E[C(omega)]`` over consistent assignments (Definition 3).

    Exponential in the number of pairs; see :data:`MAX_ENUMERATION_PAIRS`.
    """
    assignments = enumerate_consistent_assignments(order)
    pairs = [c.pair for c in order]
    expectation = 0.0
    for assignment in assignments:
        mapping = assignment.as_mapping(pairs)
        flags = crowdsourced_indicator(pairs, mapping)
        expectation += assignment.weight * sum(flags)
    return expectation


def crowdsourcing_probabilities(order: Sequence[CandidatePair]) -> List[float]:
    """P(pair i is crowdsourced) for each position — the summands of
    ``E[C(omega)]`` shown in Example 4."""
    assignments = enumerate_consistent_assignments(order)
    pairs = [c.pair for c in order]
    probabilities = [0.0] * len(pairs)
    for assignment in assignments:
        mapping = assignment.as_mapping(pairs)
        flags = crowdsourced_indicator(pairs, mapping)
        for i, crowdsourced in enumerate(flags):
            if crowdsourced:
                probabilities[i] += assignment.weight
    return probabilities


def brute_force_expected_optimal(
    candidates: Sequence[CandidatePair],
) -> Tuple[List[CandidatePair], float]:
    """Exhaustively find an order minimising ``E[C(omega)]``.

    Factorial in the number of pairs (limit :data:`MAX_BRUTE_FORCE_PAIRS`);
    exists to validate the heuristic on small instances, since the general
    problem is NP-hard.

    Returns:
        (best_order, best_expected_cost); ties broken by enumeration order.
    """
    if len(candidates) > MAX_BRUTE_FORCE_PAIRS:
        raise ValueError(
            f"brute force over {len(candidates)} pairs is {math.factorial(len(candidates))} "
            f"orders; the limit is {MAX_BRUTE_FORCE_PAIRS}"
        )
    best_order: List[CandidatePair] | None = None
    best_cost = math.inf
    for permutation in itertools.permutations(candidates):
        cost = expected_cost(permutation)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_order = list(permutation)
    assert best_order is not None, "at least one order must exist"
    return best_order, best_cost


def heuristic_gap(candidates: Sequence[CandidatePair]) -> Tuple[float, float]:
    """(heuristic cost, optimal cost) for the likelihood-descending order vs
    the brute-force expected optimum — the heuristic's optimality gap."""
    from .ordering import expected_order  # local import to avoid a cycle

    heuristic = expected_cost(expected_order(list(candidates)))
    _, optimum = brute_force_expected_optimal(candidates)
    return heuristic, optimum


def sample_assignment(
    candidates: Sequence[CandidatePair], u: float
) -> Dict[Pair, Label]:
    """Deterministically pick a consistent assignment by cumulative weight.

    ``u`` in [0, 1) indexes the CDF over consistent assignments; useful for
    property tests that need a valid ground truth drawn from the likelihood
    model without an RNG dependency.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    assignments = enumerate_consistent_assignments(candidates)
    pairs = [c.pair for c in candidates]
    cumulative = 0.0
    for assignment in assignments:
        cumulative += assignment.weight
        if u < cumulative:
            return assignment.as_mapping(pairs)
    return assignments[-1].as_mapping(pairs)


def consistent_assignments_count(candidates: Sequence[CandidatePair]) -> int:
    """Number of consistent assignments with positive probability."""
    return len(enumerate_consistent_assignments(candidates))


# ----------------------------------------------------------------------
# posteriors and adaptive policies (arXiv:1409.7472 follow-up)
# ----------------------------------------------------------------------
def posterior_assignments(
    candidates: Sequence[CandidatePair],
    evidence: Mapping[Pair, Label],
) -> List[WeightedAssignment]:
    """Consistent assignments conditioned on ``evidence``, renormalised.

    ``evidence`` maps already-resolved pairs (crowdsourced answers and the
    labels deduced from them — deduced labels are implied, so conditioning
    on them is redundant but harmless) to their labels; assignments that
    contradict any evidence label are discarded and the surviving weights
    renormalised to sum to 1.

    Raises:
        ValueError: if enumeration is infeasible, no consistent assignment
            exists, or the evidence has zero posterior mass.
    """
    pairs = [c.pair for c in candidates]
    index = {pair: i for i, pair in enumerate(pairs)}
    for pair in evidence:
        if pair not in index:
            raise ValueError(f"evidence pair {pair!r} is not a candidate")
    survivors: List[Tuple[Tuple[Label, ...], float]] = []
    total = 0.0
    for assignment in enumerate_consistent_assignments(candidates):
        if any(assignment.labels[index[p]] is not label for p, label in evidence.items()):
            continue
        survivors.append((assignment.labels, assignment.weight))
        total += assignment.weight
    if not survivors or total <= 0.0:
        raise ValueError("evidence has zero posterior probability")
    return [WeightedAssignment(labels, weight / total) for labels, weight in survivors]


def posterior_match_probability(
    candidates: Sequence[CandidatePair],
    evidence: Mapping[Pair, Label],
    pair: Pair,
) -> float:
    """P(``pair`` is matching | evidence), marginalised over the posterior.

    The spec-grade conditional the adaptive dispatch approximates per
    component: transitivity correlates pairs, so the posterior differs from
    the raw likelihood once any evidence exists.

    Raises:
        ValueError: as :func:`posterior_assignments`, or for an unknown pair.
    """
    index = {c.pair: i for i, c in enumerate(candidates)}
    if pair not in index:
        raise ValueError(f"{pair!r} is not a candidate")
    position = index[pair]
    return sum(
        a.weight
        for a in posterior_assignments(candidates, evidence)
        if a.labels[position] is Label.MATCHING
    )


def _resolve_deductions(
    candidates: Sequence[CandidatePair], evidence: Dict[Pair, Label]
) -> Dict[Pair, Label]:
    """Close ``evidence`` under transitive deduction over the candidates."""
    graph = ClusterGraph()
    for pair, label in evidence.items():
        graph.add(pair, label)
    closed = dict(evidence)
    changed = True
    while changed:
        changed = False
        for candidate in candidates:
            if candidate.pair in closed:
                continue
            label = graph.deduce(candidate.pair)
            if label is not None:
                closed[candidate.pair] = label
                graph.add(candidate.pair, label)
                changed = True
    return closed


def _posterior_table(
    candidates: Sequence[CandidatePair],
) -> Tuple[Dict[Pair, int], List[WeightedAssignment]]:
    """Pair index plus the consistent-assignment table, enumerated *once*.

    The adaptive machinery prices a posterior for every (evidence state,
    candidate) combination it explores; re-enumerating the 2^n assignments
    inside each query is what made the DP intractable beyond toy sizes.
    Filtering one shared table against the evidence is exact and cheap.
    """
    index = {c.pair: i for i, c in enumerate(candidates)}
    return index, enumerate_consistent_assignments(candidates)


def _conditioned(
    assignments: Sequence[WeightedAssignment],
    index: Mapping[Pair, int],
    evidence: Mapping[Pair, Label],
) -> Tuple[List[WeightedAssignment], float]:
    """(survivors consistent with ``evidence``, their total weight).

    Raises:
        ValueError: if the evidence has zero posterior mass or names an
            unknown pair.
    """
    for pair in evidence:
        if pair not in index:
            raise ValueError(f"evidence pair {pair!r} is not a candidate")
    survivors = [
        a
        for a in assignments
        if all(a.labels[index[p]] is label for p, label in evidence.items())
    ]
    total = sum(a.weight for a in survivors)
    if not survivors or total <= 0.0:
        raise ValueError("evidence has zero posterior probability")
    return survivors, total


def _marginal(
    survivors: Sequence[WeightedAssignment], total: float, position: int
) -> float:
    return (
        sum(a.weight for a in survivors if a.labels[position] is Label.MATCHING)
        / total
    )


def adaptive_expected_cost(
    candidates: Sequence[CandidatePair],
    choose,
) -> float:
    """Exact expected crowdsourced count of an *adaptive* policy.

    ``choose(unresolved, evidence)`` picks the next pair to crowdsource from
    the unresolved candidates given the labels resolved so far (answered or
    deduced); the expectation recurses over both answers weighted by the
    posterior.  This evaluates a dynamic policy the way
    :func:`expected_cost` evaluates a static order — adaptive policies can
    beat every static order, so this is the fair yardstick for the
    runtime's ``ordering="expected-value"``.

    Exponential in the number of pairs (enumeration limits apply).
    """
    index, assignments = _posterior_table(candidates)

    def recurse(evidence: Dict[Pair, Label]) -> float:
        closed = _resolve_deductions(candidates, evidence)
        unresolved = [c for c in candidates if c.pair not in closed]
        if not unresolved:
            return 0.0
        chosen = choose(unresolved, dict(closed))
        pair = chosen.pair if isinstance(chosen, CandidatePair) else chosen
        survivors, total = _conditioned(assignments, index, closed)
        p_match = _marginal(survivors, total, index[pair])
        cost = 1.0
        if p_match > 1e-15:
            cost += p_match * recurse({**closed, pair: Label.MATCHING})
        if p_match < 1.0 - 1e-15:
            cost += (1.0 - p_match) * recurse({**closed, pair: Label.NON_MATCHING})
        return cost

    return recurse({})


def _adaptive_value(
    candidates: Sequence[CandidatePair],
    evidence: Mapping[Pair, Label],
    cache: Dict[frozenset, float],
    index: Mapping[Pair, int],
    assignments: Sequence[WeightedAssignment],
) -> float:
    """Min expected remaining cost over all adaptive policies from ``evidence``."""
    closed = _resolve_deductions(candidates, dict(evidence))
    key = frozenset(closed.items())
    cached = cache.get(key)
    if cached is not None:
        return cached
    unresolved = [c for c in candidates if c.pair not in closed]
    if not unresolved:
        cache[key] = 0.0
        return 0.0
    survivors, total = _conditioned(assignments, index, closed)
    minimum = math.inf
    for candidate in unresolved:
        p_match = _marginal(survivors, total, index[candidate.pair])
        cost = 1.0
        if p_match > 1e-15:
            cost += p_match * _adaptive_value(
                candidates,
                {**closed, candidate.pair: Label.MATCHING},
                cache,
                index,
                assignments,
            )
        if p_match < 1.0 - 1e-15:
            cost += (1.0 - p_match) * _adaptive_value(
                candidates,
                {**closed, candidate.pair: Label.NON_MATCHING},
                cache,
                index,
                assignments,
            )
        minimum = min(minimum, cost)
    cache[key] = minimum
    return minimum


def _check_adaptive_feasible(candidates: Sequence[CandidatePair]) -> None:
    _check_enumerable(len(candidates))
    if len(candidates) > 2 * MAX_BRUTE_FORCE_PAIRS:
        raise ValueError(
            f"adaptive brute force over {len(candidates)} pairs is infeasible; "
            f"the limit is {2 * MAX_BRUTE_FORCE_PAIRS}"
        )


def brute_force_adaptive_optimal(
    candidates: Sequence[CandidatePair],
    evidence: Optional[Mapping[Pair, Label]] = None,
) -> float:
    """Exact minimum expected cost over *all* adaptive policies.

    Dynamic programming over evidence states: at each state try every
    unresolved pair and keep the cheapest.  Lower-bounds every static order
    (a static order is an adaptive policy that ignores the answers), so
    ``brute_force_adaptive_optimal <= brute_force_expected_optimal``.

    ``evidence`` optionally fixes labels of some candidates before the
    policy starts (they cost nothing — used to condition on constraints).
    """
    _check_adaptive_feasible(candidates)
    index, assignments = _posterior_table(candidates)
    return _adaptive_value(candidates, evidence or {}, {}, index, assignments)


def adaptive_optimal_choice(
    candidates: Sequence[CandidatePair],
    evidence: Optional[Mapping[Pair, Label]] = None,
) -> Optional[CandidatePair]:
    """The first question of an expected-optimal adaptive policy.

    Evaluates every unresolved candidate's ``1 + p*V(match) + (1-p)*V(non)``
    under the exact DP and returns the cheapest (ties keep the earliest
    candidate, so pre-sorting by descending likelihood makes ties fall back
    to the paper's heuristic).  Returns None when the evidence already
    resolves everything.  This is the small-n oracle the production
    :class:`~repro.engine.expected.ExpectedDeductionScorer` consults when
    enumeration is feasible.
    """
    _check_adaptive_feasible(candidates)
    index, assignments = _posterior_table(candidates)
    cache: Dict[frozenset, float] = {}
    closed = _resolve_deductions(candidates, dict(evidence or {}))
    unresolved = [c for c in candidates if c.pair not in closed]
    if not unresolved:
        return None
    survivors, total = _conditioned(assignments, index, closed)
    best_candidate = None
    best_cost = math.inf
    for candidate in unresolved:
        p_match = _marginal(survivors, total, index[candidate.pair])
        cost = 1.0
        if p_match > 1e-15:
            cost += p_match * _adaptive_value(
                candidates,
                {**closed, candidate.pair: Label.MATCHING},
                cache,
                index,
                assignments,
            )
        if p_match < 1.0 - 1e-15:
            cost += (1.0 - p_match) * _adaptive_value(
                candidates,
                {**closed, candidate.pair: Label.NON_MATCHING},
                cache,
                index,
                assignments,
            )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_candidate = candidate
    return best_candidate
