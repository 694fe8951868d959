"""Adaptive expected-deduction ordering (arXiv:1409.7472).

The paper orders pairs by descending match likelihood because the truly
expected-optimal *static* order is NP-hard.  Its follow-up (*The Expected
Optimal Labeling Order Problem*) reframes the question adaptively: given the
labels collected so far, which pair should be asked *next* to maximise the
expected number of transitive deductions?  This module supplies that
production strategy:

* :class:`ExpectedDeductionScorer` — scores each unresolved pair by its
  exact one-step expected deduction yield.  Asking a pair that spans
  clusters ``A`` and ``B`` resolves *every* other unresolved ``A``–``B``
  cross pair no matter the answer (both labels collapse them); a *matching*
  answer additionally merges ``A`` and ``B``, deducing every unresolved
  cross pair toward any third cluster that already holds a non-matching
  relation to either side.  Both counts fall straight out of the cluster
  graph, so the per-answer deduction yield is exact; only the match
  probability is estimated.
* Posterior match probabilities — per connected component of the unresolved
  pair graph, the scorer enumerates consistent assignments over the
  component's *cluster-level* variables (evidence merges are already folded
  into the quotient; existing non-matching edges act as hard constraints)
  and reads off exact marginals.  Components larger than the enumeration
  limit fall back to the raw machine likelihood — the documented
  approximation;
  :func:`repro.core.expected_cost.posterior_match_probability` is the
  spec-grade oracle this is validated against on small instances.
* :class:`ExpectedValueDispatch` — the synchronous dispatch strategy: an
  adaptive sequential loop that publishes the best-scoring pair, records
  the answer, sweeps deductions, and repeats.  The asynchronous runtime
  reaches the same scorer through ``ordering="expected-value"`` on
  :class:`~repro.engine.async_dispatch.CrowdRuntime` /
  :class:`~repro.engine.async_dispatch.AsyncDispatch`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.cluster_graph import ClusterGraph, ConflictPolicy
from ..core.expected_cost import MAX_BRUTE_FORCE_PAIRS, adaptive_optimal_choice
from ..core.oracle import LabelOracle
from ..core.pairs import CandidatePair, Label, Pair
from ..core.result import LabelingResult
from ..core.union_find import UnionFind
from .dispatch import _engine_config
from .engine import LabelingEngine

#: Components with more distinct cluster-level variables than this fall back
#: to the raw likelihood instead of exact posterior enumeration (2^k combos).
DEFAULT_ENUMERATION_LIMIT = 10


class ExpectedDeductionScorer:
    """Scores unresolved pairs by expected one-step transitive deductions.

    Feed every resolved label through :meth:`observe` (or :meth:`sync`);
    :meth:`choose` then returns the unresolved candidate maximising

        ``P(match | evidence) * ded_match + P(non-match | evidence) * ded_nm``

    where the deduction counts are exact consequences of the current cluster
    structure.  Ties break toward the higher machine likelihood, then the
    earlier candidate (so with no structure yet — every score 0 — the choice
    degenerates to the paper's likelihood-descending heuristic).

    The internal graph runs under FIRST_WINS so noisy, contradictory answers
    degrade scoring instead of raising.
    """

    def __init__(self, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT) -> None:
        if enumeration_limit < 1:
            raise ValueError(f"enumeration_limit must be >= 1, got {enumeration_limit}")
        self._limit = enumeration_limit
        self._graph = ClusterGraph(policy=ConflictPolicy.FIRST_WINS)
        self._seen: Set[Pair] = set()

    def observe(self, pair: Pair, label: Label) -> None:
        """Fold one resolved label (answered or deduced) into the evidence."""
        if pair in self._seen:
            return
        self._seen.add(pair)
        self._graph.add(pair, label)

    def sync(self, labeled: Mapping[Pair, Label]) -> None:
        """Fold every label of ``labeled`` into the evidence (idempotent)."""
        for pair, label in labeled.items():
            self.observe(pair, label)

    def deducible(self, pair: Pair) -> bool:
        """True iff the evidence already implies ``pair``'s label."""
        return self._graph.deducible(pair)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _root(self, obj: Hashable) -> Hashable:
        graph = self._graph
        return graph.cluster_of(obj) if obj in graph else obj

    def choose(
        self, unresolved: Sequence[CandidatePair]
    ) -> Optional[CandidatePair]:
        """The next pair an expected-optimal policy should crowdsource.

        Candidates whose label the evidence already implies are skipped
        (they cost nothing — let the sweep resolve them); returns None when
        every candidate is deducible.  When the instance's evidence-
        conditioned quotient is small enough to enumerate, the choice is the
        *exact* expected-optimal one (full adaptive DP via
        :func:`repro.core.expected_cost.adaptive_optimal_choice`); otherwise
        the greedy one-step expected-deduction score decides.
        """
        exact = self._exact_choice(unresolved)
        if exact is not None:
            return exact
        scored = self.scores(unresolved)
        best: Optional[CandidatePair] = None
        best_rank: Tuple[float, float] = (-1.0, -1.0)
        for candidate, score in scored:
            rank = (score, candidate.likelihood)
            if rank > best_rank:
                best, best_rank = candidate, rank
        return best

    def _exact_choice(
        self, unresolved: Sequence[CandidatePair]
    ) -> Optional[CandidatePair]:
        """Exact expected-optimal next question, if enumeration is feasible.

        Reduces the evidence-conditioned instance to its cluster-level
        quotient: each distinct cluster pair becomes one variable (parallel
        pairs share it — transitivity forces them equal — with the joint
        match probability), and each existing non-matching edge between
        involved clusters joins as a pre-labeled candidate.  The adaptive DP
        over that quotient prices every possible next question; its pick is
        mapped back to the highest-likelihood real pair of the winning
        variable.  Returns None (fall back to greedy) when the quotient is
        too large to enumerate or every candidate is deducible.
        """
        graph = self._graph
        variables: Dict[FrozenSet, List] = {}
        for candidate in unresolved:
            if graph.deducible(candidate.pair):
                continue
            root_a = self._root(candidate.pair.left)
            root_b = self._root(candidate.pair.right)
            cell = variables.setdefault(frozenset((root_a, root_b)), [1.0, 1.0, None])
            cell[0] *= candidate.likelihood
            cell[1] *= 1.0 - candidate.likelihood
            if cell[2] is None or candidate.likelihood > cell[2].likelihood:
                cell[2] = candidate
        if not variables:
            return None
        involved: Set[Hashable] = set()
        for key in variables:
            involved.update(key)
        constraints = set()
        for root_a, root_b in graph.non_matching_cluster_edges():
            if root_a in involved and root_b in involved:
                constraints.add(frozenset((root_a, root_b)))
        constraints -= set(variables)  # a constrained variable is deducible
        # The adaptive DP enumerates assignments over the *whole* quotient
        # (variables and constraint pairs alike) inside every posterior it
        # prices, so the brute-force cap must bound their sum: constraints
        # are as expensive to carry as open variables.
        if len(variables) + len(constraints) > MAX_BRUTE_FORCE_PAIRS:
            return None
        quotient: List[CandidatePair] = []
        evidence: Dict[Pair, Label] = {}
        for key, (w_match, w_non, _) in sorted(
            variables.items(),
            key=lambda item: (-(item[1][0] / (item[1][0] + item[1][1])
                              if item[1][0] + item[1][1] > 0 else 0.0),
                              repr(sorted(map(repr, item[0])))),
        ):
            total = w_match + w_non
            p_match = w_match / total if total > 0 else 0.0
            root_a, root_b = tuple(key)
            quotient.append(CandidatePair(Pair(root_a, root_b), p_match))
        for key in sorted(constraints, key=lambda k: repr(sorted(map(repr, k)))):
            root_a, root_b = tuple(key)
            pair = Pair(root_a, root_b)
            quotient.append(CandidatePair(pair, 0.0))
            evidence[pair] = Label.NON_MATCHING
        try:
            chosen = adaptive_optimal_choice(quotient, evidence)
        except ValueError:
            # No consistent assignment (noisy evidence) — greedy handles it.
            return None
        if chosen is None:
            return None
        cell = variables.get(frozenset((chosen.pair.left, chosen.pair.right)))
        return cell[2] if cell is not None else None

    def scores(
        self, unresolved: Sequence[CandidatePair]
    ) -> List[Tuple[CandidatePair, float]]:
        """(candidate, expected deductions) for each non-deducible candidate."""
        graph = self._graph
        candidates: List[CandidatePair] = []
        roots: List[Tuple[Hashable, Hashable]] = []
        for candidate in unresolved:
            if graph.deducible(candidate.pair):
                continue
            candidates.append(candidate)
            roots.append(
                (self._root(candidate.pair.left), self._root(candidate.pair.right))
            )
        if not candidates:
            return []
        cross: Counter = Counter(frozenset(pair_roots) for pair_roots in roots)
        nm: Dict[Hashable, Set[Hashable]] = {}
        for root_a, root_b in graph.non_matching_cluster_edges():
            nm.setdefault(root_a, set()).add(root_b)
            nm.setdefault(root_b, set()).add(root_a)
        posteriors = self._posteriors(candidates, roots, nm)
        results: List[Tuple[CandidatePair, float]] = []
        for candidate, (root_a, root_b), p_match in zip(candidates, roots, posteriors):
            key = frozenset((root_a, root_b))
            # Every other unresolved A-B cross pair resolves either way.
            both_ways = cross[key] - 1
            # A merge additionally deduces cross pairs toward third clusters
            # holding a known non-matching relation to the *other* side.
            merge_bonus = sum(
                cross.get(frozenset((root_b, third)), 0)
                for third in nm.get(root_a, ())
                if third != root_b
            ) + sum(
                cross.get(frozenset((root_a, third)), 0)
                for third in nm.get(root_b, ())
                if third != root_a
            )
            score = p_match * (both_ways + merge_bonus) + (1.0 - p_match) * both_ways
            results.append((candidate, score))
        return results

    # ------------------------------------------------------------------
    # posterior match probabilities
    # ------------------------------------------------------------------
    def _posteriors(
        self,
        candidates: Sequence[CandidatePair],
        roots: Sequence[Tuple[Hashable, Hashable]],
        nm: Mapping[Hashable, Set[Hashable]],
    ) -> List[float]:
        """P(match | evidence) per candidate.

        Exact per-component enumeration over cluster-level variables
        (parallel pairs between the same two clusters share one variable —
        transitivity forces them equal — with joint weights), falling back
        to the raw likelihood for components beyond the enumeration limit.
        """
        # Distinct cluster pairs become variables; parallel candidates
        # multiply into the variable's joint match / non-match weights.
        weights: Dict[FrozenSet, List[float]] = {}
        for candidate, pair_roots in zip(candidates, roots):
            cell = weights.setdefault(frozenset(pair_roots), [1.0, 1.0])
            cell[0] *= candidate.likelihood
            cell[1] *= 1.0 - candidate.likelihood
        # Components over cluster roots: variables correlate their two
        # endpoints; an evidence non-matching edge correlates its endpoints
        # too (it constrains merges on both sides).
        involved: Set[Hashable] = set()
        for key in weights:
            involved.update(key)
        uf = UnionFind()
        for key in weights:
            root_a, root_b = tuple(key)
            uf.union(root_a, root_b)
        for root_a in involved:
            for root_b in nm.get(root_a, ()):
                if root_b in involved:
                    uf.union(root_a, root_b)
        components: Dict[Hashable, List[FrozenSet]] = {}
        for key in weights:
            components.setdefault(uf.find(next(iter(key))), []).append(key)
        marginals: Dict[FrozenSet, float] = {}
        for variables in components.values():
            if len(variables) > self._limit:
                continue  # fall back to raw likelihoods below
            component_roots: Set[Hashable] = set()
            for key in variables:
                component_roots.update(key)
            constraints = {
                frozenset((root_a, root_b))
                for root_a in component_roots
                for root_b in nm.get(root_a, ())
                if root_b in component_roots
            }
            marginals.update(
                _enumerate_component(variables, weights, constraints)
            )
        return [
            marginals.get(frozenset(pair_roots), candidate.likelihood)
            for candidate, pair_roots in zip(candidates, roots)
        ]


def _enumerate_component(
    variables: List[FrozenSet],
    weights: Mapping[FrozenSet, List[float]],
    constraints: Set[FrozenSet],
) -> Dict[FrozenSet, float]:
    """Exact match marginals for one component's cluster-level variables.

    Enumerates all 2^k label combinations, keeping those where (a) no
    variable labeled non-matching has its endpoints merged by the matching
    variables, and (b) no evidence non-matching edge has its endpoints
    merged.  Weights multiply per variable; marginals renormalise over the
    consistent mass.  Returns {} when no combination carries positive weight
    (callers then fall back to raw likelihoods).
    """
    match_mass = {key: 0.0 for key in variables}
    total = 0.0
    for combo in itertools.product((Label.MATCHING, Label.NON_MATCHING), repeat=len(variables)):
        weight = 1.0
        for key, label in zip(variables, combo):
            cell = weights[key]
            weight *= cell[0] if label is Label.MATCHING else cell[1]
        if weight == 0.0:
            continue
        uf = UnionFind()
        for key, label in zip(variables, combo):
            if label is Label.MATCHING:
                root_a, root_b = tuple(key)
                uf.union(root_a, root_b)
        consistent = True
        for key, label in zip(variables, combo):
            if label is Label.NON_MATCHING:
                root_a, root_b = tuple(key)
                if uf.connected(root_a, root_b):
                    consistent = False
                    break
        if consistent:
            for key in constraints:
                root_a, root_b = tuple(key)
                if uf.connected(root_a, root_b):
                    consistent = False
                    break
        if not consistent:
            continue
        total += weight
        for key, label in zip(variables, combo):
            if label is Label.MATCHING:
                match_mass[key] += weight
    if total <= 0.0:
        return {}
    return {key: mass / total for key, mass in match_mass.items()}


def expected_value_choice(
    unresolved: Sequence[CandidatePair],
    evidence: Mapping[Pair, Label],
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Optional[CandidatePair]:
    """One-shot functional form of the scorer's decision rule.

    Builds the evidence graph from scratch per call — convenient for
    property tests and for
    :func:`repro.core.expected_cost.adaptive_expected_cost`, which needs a
    pure ``choose(unresolved, evidence)`` policy function.
    """
    scorer = ExpectedDeductionScorer(enumeration_limit=enumeration_limit)
    scorer.sync(evidence)
    return scorer.choose(unresolved)


class ExpectedValueDispatch:
    """Adaptive dispatch: ask whichever pair maximises expected deductions.

    The paper's production strategies follow a *static* likelihood-descending
    order; this strategy re-decides after every answer using the posterior
    evidence, spending strictly fewer expected questions on reference
    workloads (gated in ``benchmarks/bench_core_micro.py``).  It is the
    sequential-granularity strategy — one pair in flight at a time — so its
    crowdsourced count is directly comparable to the sequential mode of
    :class:`~repro.engine.async_dispatch.AsyncDispatch`.

    Args:
        policy / backend / shard_threshold / parallel_threshold / n_workers:
            engine knobs, as every other dispatch strategy (spec values act
            as defaults, explicit arguments override).
        enumeration_limit: component size cap for exact posterior
            enumeration; larger components use raw likelihoods.
        spec: optional :class:`~repro.spec.CampaignSpec` supplying defaults.
    """

    def __init__(
        self,
        policy: Optional[ConflictPolicy] = None,
        backend: Optional[str] = None,
        shard_threshold: Optional[int] = None,
        parallel_threshold: Optional[int] = None,
        n_workers: Optional[int] = None,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
        *,
        spec=None,
    ) -> None:
        self._enumeration_limit = enumeration_limit
        self._engine_kwargs = _engine_config(
            spec,
            policy=policy,
            backend=backend,
            shard_threshold=shard_threshold,
            parallel_threshold=parallel_threshold,
            n_workers=n_workers,
        )

    def run(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        oracle: LabelOracle,
    ) -> LabelingResult:
        """Label every pair of ``order``; the order's *sequence* is only the
        final tie-breaker — the adaptive scorer decides what to ask."""
        engine = LabelingEngine(order, **self._engine_kwargs)
        try:
            return self._run(engine, oracle)
        finally:
            engine.close()

    def _run(self, engine: LabelingEngine, oracle: LabelOracle) -> LabelingResult:
        scorer = ExpectedDeductionScorer(enumeration_limit=self._enumeration_limit)
        likelihoods = engine.likelihoods
        round_index = 0
        while not engine.is_done:
            unresolved = [
                CandidatePair(pair, likelihoods[pair])
                for pair in engine.pairs
                if pair not in engine.labeled
            ]
            chosen = scorer.choose(unresolved)
            if chosen is None:
                # Everything left is deducible; the sweep must finish the job.
                if not engine.sweep(round_index):
                    raise RuntimeError(
                        "adaptive loop stalled: unresolved pairs remain but "
                        "none is crowdsourceable or deducible"
                    )
                continue
            pair = chosen.pair
            engine.publish([pair])
            engine.result.rounds.append([pair])
            answer = oracle.label(pair)
            engine.record_answer(pair, answer, round_index)
            scorer.observe(pair, answer)
            for deduced_pair, deduced_label in engine.sweep(round_index):
                scorer.observe(deduced_pair, deduced_label)
            round_index += 1
        return engine.result
