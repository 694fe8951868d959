"""Result records produced by the labeling algorithms.

Every labeler returns a :class:`LabelingResult` that records, per pair, the
final label, its provenance (crowdsourced or deduced), and the round in which
it was resolved.  These records feed every experiment: the money metric is
``n_crowdsourced``, the latency metrics come from ``rounds`` and the
platform traces, and the quality metrics compare ``matches()`` to truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence, Set

from .pairs import Label, LabeledPair, Pair, Provenance


@dataclass(frozen=True)
class PairOutcome:
    """The fate of one pair in a labeling run."""

    pair: Pair
    label: Label
    provenance: Provenance
    round_index: int
    position: int

    @property
    def crowdsourced(self) -> bool:
        return self.provenance is Provenance.CROWDSOURCED

    @property
    def deduced(self) -> bool:
        return self.provenance is Provenance.DEDUCED


@dataclass
class LabelingResult:
    """Full account of a labeling run.

    Attributes:
        outcomes: pair -> :class:`PairOutcome`, for every input pair.
        order: the labeling order that was used.
        rounds: pairs *crowdsourced* in each round, in publication order.
            The sequential labeler publishes one pair per round; the parallel
            labeler publishes batches (paper Figure 13 plots their sizes).
    """

    outcomes: Dict[Pair, PairOutcome] = field(default_factory=dict)
    order: List[Pair] = field(default_factory=list)
    rounds: List[List[Pair]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Provenance tallies behind the headline counts: derived once here,
        # then kept by record(), so reading them never scans the outcomes
        # (a campaign's status is read while it runs).
        n_crowdsourced = sum(1 for o in self.outcomes.values() if o.crowdsourced)
        self._n_crowdsourced = n_crowdsourced
        self._n_deduced = len(self.outcomes) - n_crowdsourced

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        pair: Pair,
        label: Label,
        provenance: Provenance,
        round_index: int,
    ) -> None:
        """Record the outcome for ``pair``: :meth:`record_many` for one pair.

        Raises:
            ValueError: if the pair was already recorded (labels are final).
        """
        self.record_many({pair: label}, provenance, round_index)

    def record_many(
        self,
        labels: Mapping[Pair, Label],
        provenance: Provenance,
        round_index: int,
    ) -> None:
        """Record one outcome per entry of ``labels``, in its order: each
        outcome's position is the number of outcomes recorded before it.

        Raises:
            ValueError: if a pair was already recorded; nothing is recorded
                then.
        """
        outcomes = self.outcomes
        # Two key views: the check iterates the smaller side.
        if not outcomes.keys().isdisjoint(labels.keys()):
            pair = next(pair for pair in labels if pair in outcomes)
            raise ValueError(f"{pair!r} was already labeled")
        for position, (pair, label) in enumerate(labels.items(), len(outcomes)):
            outcomes[pair] = PairOutcome(pair, label, provenance, round_index, position)
        if provenance is Provenance.CROWDSOURCED:
            self._n_crowdsourced += len(labels)
        else:
            self._n_deduced += len(labels)

    # ------------------------------------------------------------------
    # headline statistics
    # ------------------------------------------------------------------
    @property
    def n_pairs(self) -> int:
        """Total pairs labeled (crowdsourced + deduced)."""
        return len(self.outcomes)

    @property
    def n_crowdsourced(self) -> int:
        """The money metric: pairs sent to the crowd (paper Definition 1)."""
        return self._n_crowdsourced

    @property
    def n_deduced(self) -> int:
        """Pairs resolved for free via transitive relations."""
        return self._n_deduced

    @property
    def n_rounds(self) -> int:
        """Number of crowdsourcing iterations (paper Figures 13/14)."""
        return len(self.rounds)

    @property
    def savings(self) -> float:
        """Fraction of pairs that did not need crowdsourcing, in [0, 1]."""
        if not self.outcomes:
            return 0.0
        return self.n_deduced / self.n_pairs

    def round_sizes(self) -> List[int]:
        """Crowdsourced pairs per round (the Figure 13 series)."""
        return [len(batch) for batch in self.rounds]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def label_of(self, pair: Pair) -> Label:
        """Final label of ``pair``.

        Raises:
            KeyError: if the pair was not part of this run.
        """
        return self.outcomes[pair].label

    def labels(self) -> Dict[Pair, Label]:
        """pair -> final label for all pairs."""
        return {pair: outcome.label for pair, outcome in self.outcomes.items()}

    def matches(self) -> Set[Pair]:
        """Pairs whose final label is MATCHING."""
        return {p for p, o in self.outcomes.items() if o.label is Label.MATCHING}

    def non_matches(self) -> Set[Pair]:
        """Pairs whose final label is NON_MATCHING."""
        return {p for p, o in self.outcomes.items() if o.label is Label.NON_MATCHING}

    def crowdsourced_pairs(self) -> List[Pair]:
        """Pairs that were sent to the crowd, in publication order."""
        flat: List[Pair] = []
        for batch in self.rounds:
            flat.extend(batch)
        return flat

    def deduced_pairs(self) -> List[Pair]:
        """Pairs resolved by deduction, in resolution order."""
        deduced = [o for o in self.outcomes.values() if o.deduced]
        deduced.sort(key=lambda o: o.position)
        return [o.pair for o in deduced]

    def as_labeled_pairs(self) -> List[LabeledPair]:
        """All outcomes as :class:`LabeledPair` values, in resolution order."""
        ordered = sorted(self.outcomes.values(), key=lambda o: o.position)
        return [LabeledPair(o.pair, o.label) for o in ordered]

    def __iter__(self) -> Iterator[PairOutcome]:
        return iter(sorted(self.outcomes.values(), key=lambda o: o.position))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LabelingResult({self.n_pairs} pairs: {self.n_crowdsourced} crowdsourced, "
            f"{self.n_deduced} deduced, {self.n_rounds} rounds)"
        )

    # ------------------------------------------------------------------
    # deferred bulk restore
    # ------------------------------------------------------------------
    def defer_restore(self, thunk, *, n_crowdsourced: int, n_deduced: int) -> None:
        """Register ``thunk(self)`` to rebuild ``outcomes``/``rounds`` lazily.

        A snapshot restore of a large campaign would otherwise spend most
        of its time materialising per-pair :class:`PairOutcome` records
        that nothing may ever read (a recovered campaign that keeps
        labeling touches them only when reporting).  The thunk runs at
        most once, on the first access to either field — including the
        first :meth:`record` of a post-snapshot answer, so resumed runs
        always append to fully restored state.  The headline counts come
        with the thunk (the snapshot knows them), so reading them leaves
        the thunk pending.
        """
        self.__dict__["_restore_thunk"] = thunk
        self._n_crowdsourced = n_crowdsourced
        self._n_deduced = n_deduced


def _lazy_restore_field(name: str) -> property:
    """A field that materialises a pending :meth:`defer_restore` thunk.

    Plain instance storage under the same key; only reads trigger the
    thunk.  A wholesale assignment during deferral would be clobbered by
    a later materialisation — the only writer between defer and first
    read is the thunk itself, by construction in ``restore_state``.
    """

    def fget(self):
        d = self.__dict__
        thunk = d.get("_restore_thunk")
        if thunk is not None:
            d["_restore_thunk"] = None
            thunk(self)
        return d[name]

    def fset(self, value) -> None:
        self.__dict__[name] = value

    return property(fget, fset)


LabelingResult.outcomes = _lazy_restore_field("outcomes")
LabelingResult.rounds = _lazy_restore_field("rounds")


def merge_counts(results: Sequence[LabelingResult]) -> Dict[str, int]:
    """Aggregate headline counts across runs (used by sweep experiments)."""
    return {
        "pairs": sum(r.n_pairs for r in results),
        "crowdsourced": sum(r.n_crowdsourced for r in results),
        "deduced": sum(r.n_deduced for r in results),
        "rounds": sum(r.n_rounds for r in results),
    }
