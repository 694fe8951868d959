"""Object-pair and label primitives used across the library.

The paper (Section 2.2) works with *object pairs* ``p = (o, o')`` whose label
is either ``matching`` (the two objects refer to the same real-world entity)
or ``non-matching``.  This module provides canonical, hashable value types for
pairs and labels, plus the likelihood-carrying candidate pair produced by the
machine-based matcher (Section 2.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator


class Label(enum.Enum):
    """The label of an object pair.

    ``MATCHING`` means the two objects refer to the same real-world entity
    (written ``o = o'`` in the paper); ``NON_MATCHING`` means they refer to
    different entities (``o != o'``).
    """

    MATCHING = "matching"
    NON_MATCHING = "non-matching"

    def negate(self) -> "Label":
        """Return the opposite label."""
        if self is Label.MATCHING:
            return Label.NON_MATCHING
        return Label.MATCHING

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Label.{self.name}"


class Provenance(enum.Enum):
    """How a pair obtained its label in the labeling framework."""

    CROWDSOURCED = "crowdsourced"
    DEDUCED = "deduced"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Provenance.{self.name}"


#: The integer code of each label wherever labels are packed: engine
#: snapshots, the vectorized backend's ``label_code`` array (where 0 means
#: unlabeled) and the shard command protocol.  Snapshots persist these
#: values, so they must never change.
LABEL_CODE = {Label.MATCHING: 1, Label.NON_MATCHING: 2}
LABEL_OF_CODE = {code: label for label, code in LABEL_CODE.items()}


def _object_sort_key(obj: Hashable) -> tuple[str, str]:
    """A total order over arbitrary hashable objects.

    Objects of heterogeneous types cannot always be compared with ``<``; we
    order by ``(type name, repr)`` which is deterministic and total —
    *provided* the repr itself is deterministic.  The default
    ``object.__repr__`` embeds the instance's memory address, which varies
    across processes: a pair canonicalised by it would store its members in
    different left/right order in different processes, silently breaking the
    journal's encoded order and ``state_fingerprint`` comparisons.  Such
    objects are rejected at construction.

    Raises:
        TypeError: if ``obj``'s repr is the address-based default.
    """
    cls = type(obj)
    if cls.__repr__ is object.__repr__:
        raise TypeError(
            f"cannot canonicalise a Pair containing a {cls.__name__} instance: "
            "its default repr embeds a memory address, so left/right order "
            "would differ across processes. Use scalar object ids "
            "(str/int/float/bool/None) — the contract repro.spec.encode_object "
            "enforces — or give the type a deterministic __repr__."
        )
    return (cls.__name__, repr(obj))


@dataclass(frozen=True)
class Pair:
    """An unordered pair of distinct objects.

    ``Pair(a, b)`` and ``Pair(b, a)`` compare and hash equal: the pair is
    canonicalised at construction so the "smaller" object (by a deterministic
    total order) is stored first.

    Raises:
        ValueError: if the two objects are equal (a pair must relate two
            *distinct* objects).
    """

    left: Hashable
    right: Hashable

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError(f"a Pair must contain two distinct objects, got {self.left!r} twice")
        if _object_sort_key(self.left) > _object_sort_key(self.right):
            smaller, larger = self.right, self.left
            object.__setattr__(self, "left", smaller)
            object.__setattr__(self, "right", larger)

    def __iter__(self) -> Iterator[Hashable]:
        yield self.left
        yield self.right

    def other(self, obj: Hashable) -> Hashable:
        """Return the pair's other object.

        Raises:
            KeyError: if ``obj`` is not a member of this pair.
        """
        if obj == self.left:
            return self.right
        if obj == self.right:
            return self.left
        raise KeyError(f"{obj!r} is not a member of {self!r}")

    def __contains__(self, obj: Hashable) -> bool:
        return obj == self.left or obj == self.right

    def __hash__(self) -> int:
        # Pairs key every hot dict in the engine (positions, likelihoods,
        # outcomes), so the tuple hash is cached on first use.  The cache
        # lives in the instance dict, not a field: it must never leak
        # through pickle (str hashes are salted per process — see
        # __getstate__) and never participate in repr/eq.
        fields = self.__dict__
        cached = fields.get("_hash")
        if cached is None:
            cached = fields["_hash"] = hash((self.left, self.right))
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return f"Pair({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class LabeledPair:
    """A pair together with its label."""

    pair: Pair
    label: Label

    @property
    def is_matching(self) -> bool:
        return self.label is Label.MATCHING

    def __iter__(self) -> Iterator[Any]:
        yield self.pair
        yield self.label


@dataclass(frozen=True, order=False)
class CandidatePair:
    """A pair plus the machine-estimated likelihood that it is matching.

    The likelihood plays two roles in the paper: thresholding (only pairs with
    likelihood above a cut-off are sent for labeling, Section 6) and ordering
    (the heuristic labeling order sorts by decreasing likelihood,
    Section 4.2).
    """

    pair: Pair
    likelihood: float = field(default=0.5)

    def __post_init__(self) -> None:
        if not 0.0 <= self.likelihood <= 1.0:
            raise ValueError(f"likelihood must be in [0, 1], got {self.likelihood}")

    @property
    def left(self) -> Hashable:
        return self.pair.left

    @property
    def right(self) -> Hashable:
        return self.pair.right

    def sort_key(self) -> tuple[float, str, str]:
        """Deterministic tie-broken key: likelihood, then pair identity."""
        return (self.likelihood, repr(self.pair.left), repr(self.pair.right))


def make_pair(a: Hashable, b: Hashable) -> Pair:
    """Convenience constructor mirroring the paper's ``(o, o')`` notation."""
    return Pair(a, b)


def candidate(a: Hashable, b: Hashable, likelihood: float = 0.5) -> CandidatePair:
    """Build a :class:`CandidatePair` from two objects and a likelihood."""
    return CandidatePair(Pair(a, b), likelihood)


def pairs_of(candidates: Iterable[CandidatePair]) -> list[Pair]:
    """Project a sequence of candidates to their bare pairs, preserving order."""
    return [c.pair for c in candidates]


def objects_of(pairs: Iterable[Pair]) -> set[Hashable]:
    """The set of distinct objects mentioned by ``pairs``."""
    objects: set[Hashable] = set()
    for pair in pairs:
        objects.add(pair.left)
        objects.add(pair.right)
    return objects


def ensure_unique(candidates: Iterable[CandidatePair]) -> list[CandidatePair]:
    """Drop duplicate pairs, keeping the first (highest-priority) occurrence.

    Raises:
        ValueError: if the same pair appears twice with *different*
            likelihoods, which almost always indicates a bug in candidate
            generation.
    """
    seen: dict[Pair, float] = {}
    unique: list[CandidatePair] = []
    for cand in candidates:
        if cand.pair in seen:
            if seen[cand.pair] != cand.likelihood:
                raise ValueError(
                    f"duplicate candidate {cand.pair!r} with conflicting likelihoods "
                    f"{seen[cand.pair]} and {cand.likelihood}"
                )
            continue
        seen[cand.pair] = cand.likelihood
        unique.append(cand)
    return unique
