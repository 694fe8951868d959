"""Seeded workload generator and the four workload definitions.

Every campaign's labeling order is built from *blocks*, the shape blocking
emits in entity resolution: each block holds whole ground-truth clusters,
all within-cluster pairs are candidates, and a share of the block's
cross-cluster pairs are added as near-miss candidates.  Clusters come from
the paper's Figure 10 histograms (``paper_spec`` for Cora, ``product_spec``
for Abt-Buy) or from the near-miss block shape of ``bench_core_micro.py``'s
scale tests.  The order is sorted by descending machine likelihood, the
paper's heuristic order: within-cluster pairs draw their likelihood from
[0.5, 1), near misses from [0, 0.5).

The near-miss share is what sets the deduction share (the fraction of pairs
transitivity settles for free).  It is chosen per shape so the share falls
where ``repro.datasets.distributions`` documents it: about 10-25 % for
Product and about 90-95 % for Paper.

The program under test never sees the generator: it receives a
``CampaignSpec`` holding the generated order, and the benchmark's platform
kind answers from the ground truth generated here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.pairs import CandidatePair, Label, Pair
from repro.datasets.distributions import ClusterSizeSpec, paper_spec, product_spec

#: Recoveries per cycle of a compacted journal (``recover_s`` is their
#: median); recovering a finished campaign appends nothing to its journal.
SNAPSHOT_RECOVERIES = 2

#: The near-miss block shape of ``bench_core_micro.py``'s scale tests.
MICRO_BLOCK_SPEC = ClusterSizeSpec.from_mapping({8: 8, 4: 20, 2: 40, 1: 60})


@dataclass(frozen=True)
class Shape:
    """How one campaign's order is generated.

    Attributes:
        histogram: the cluster-size histogram one copy draws from.
        copies: how many copies of the histogram the campaign holds.
        block_records: records per block (clusters are shuffled and packed
            into blocks of about this many records; ``0`` keeps each copy
            of the histogram as one block).
        near_miss_share: fraction of a block's cross-cluster pairs that
            become near-miss candidates.
    """

    histogram: ClusterSizeSpec
    copies: int
    block_records: int
    near_miss_share: float


@dataclass
class Campaign:
    """One generated campaign: its order and the crowd's ground truth."""

    order: List[CandidatePair]
    entity_of: Dict[int, int]

    def answer(self, pair: Pair) -> Label:
        same = self.entity_of[pair.left] == self.entity_of[pair.right]
        return Label.MATCHING if same else Label.NON_MATCHING

    def fresh_order(self) -> List[CandidatePair]:
        """The order again, in new objects the program alone will own."""
        return [CandidatePair(Pair(c.left, c.right), c.likelihood) for c in self.order]

    def truth(self) -> Dict[Pair, Label]:
        return {item.pair: self.answer(item.pair) for item in self.order}


def _blocks(rng: random.Random, shape: Shape) -> List[List[List[int]]]:
    """Clusters (as lists of object ids) grouped into blocks."""
    sizes: List[int] = []
    for _ in range(shape.copies):
        sizes.extend(shape.histogram.sizes())
    if shape.block_records:
        rng.shuffle(sizes)
    blocks: List[List[List[int]]] = []
    next_obj = 0
    block: List[List[int]] = []
    block_size = 0
    per_copy = shape.histogram.n_clusters
    for index, size in enumerate(sizes):
        block.append(list(range(next_obj, next_obj + size)))
        next_obj += size
        block_size += size
        full = (
            block_size >= shape.block_records
            if shape.block_records
            else (index + 1) % per_copy == 0
        )
        if full:
            blocks.append(block)
            block, block_size = [], 0
    if block:
        blocks.append(block)
    return blocks


def generate(seed: int, shape: Shape) -> Campaign:
    """Build one campaign's order and ground truth from ``seed``."""
    rng = random.Random(seed)
    entity_of: Dict[int, int] = {}
    order: List[CandidatePair] = []
    next_entity = 0
    for block in _blocks(rng, shape):
        members: List[int] = []
        for cluster in block:
            for obj in cluster:
                entity_of[obj] = next_entity
            next_entity += 1
            members.extend(cluster)
            for i, a in enumerate(cluster):
                for b in cluster[i + 1:]:
                    order.append(CandidatePair(Pair(a, b), rng.uniform(0.5, 1.0)))
        n = len(members)
        within = sum(len(c) * (len(c) - 1) // 2 for c in block)
        cross = n * (n - 1) // 2 - within
        wanted = min(cross, round(shape.near_miss_share * cross))
        seen = set()
        while len(seen) < wanted:
            a, b = rng.sample(members, 2)
            if entity_of[a] == entity_of[b]:
                continue
            pair = Pair(a, b)
            if pair not in seen:
                seen.add(pair)
                order.append(CandidatePair(pair, rng.uniform(0.0, 0.5)))
    # The paper's heuristic order; the sort is stable and the likelihoods
    # are seeded draws, so the order is a function of the seed.
    order.sort(key=lambda cand: -cand.likelihood)
    return Campaign(order=order, entity_of=entity_of)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its campaigns, and how they are hosted.

    Attributes:
        name: the workload name, as ``BENCHMARK.json`` lists it.
        shape: how each campaign's order is generated.
        tenants: concurrent campaigns (each with its own seed stream).
        mode / backend / batch_size / review: the ``CampaignSpec`` fields.
        latency: ``("spread", hi)`` draws each HIT's crowd latency uniformly
            from ``[0, hi)`` clock units, so polls return about one
            completion; ``("constant", t)`` makes a poll return every HIT
            published in the same tick.
        via_http: campaigns are created by ``POST /campaigns``.
        status_rate: open-loop status probes per second.  ``Campaign.status``
            counts the outcome of every pair, so a probe costs time linear
            in the campaign's size (about 1.2 ms for a tenant, 68 ms at
            100k pairs); the rates keep the probes under a fifth of the
            loop.
        recovery: ``"replay"`` recovers the live journal once, by full
            replay; ``"snapshot"`` compacts it first and recovers it
            :data:`SNAPSHOT_RECOVERIES` times, each loading the snapshot.
        setup_trials: extra create-to-first-HIT trials per cycle (the live
            phase's creation is always one more).
        fsync_every: journal appends between fsyncs (``None`` keeps the
            program's default).
    """

    name: str
    shape: Shape
    tenants: int
    mode: str
    backend: str
    batch_size: int
    latency: Tuple[str, float]
    via_http: bool
    status_rate: float
    recovery: str
    setup_trials: int
    review: Optional[str] = None
    fsync_every: Optional[int] = None


def _product(copies: int) -> Shape:
    return Shape(product_spec(), copies, block_records=8, near_miss_share=0.25)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tenants-instant",
            shape=_product(1),
            tenants=4,
            mode="instant",
            backend="auto",
            batch_size=8,
            latency=("spread", 1200.0),
            via_http=True,
            status_rate=100.0,
            recovery="snapshot",
            setup_trials=4,
        ),
        Workload(
            name="burst-journal",
            shape=_product(15),
            tenants=1,
            mode="hit-rounds",
            backend="vectorized",
            batch_size=1,
            latency=("constant", 1.0),
            via_http=False,
            status_rate=8.0,
            recovery="replay",
            setup_trials=3,
            review="approve-all",
        ),
        Workload(
            name="scale-instant",
            shape=Shape(paper_spec(), 6, block_records=0, near_miss_share=0.00208),
            tenants=1,
            mode="instant",
            backend="auto",
            batch_size=8,
            latency=("constant", 1.0),
            via_http=False,
            status_rate=3.0,
            recovery="snapshot",
            # One trial keeps a cycle near 21 s, so two fit in a run.
            setup_trials=1,
        ),
        Workload(
            name="distributed-rounds",
            shape=Shape(MICRO_BLOCK_SPEC, 32, block_records=0, near_miss_share=0.0162),
            tenants=1,
            mode="rounds",
            backend="distributed",
            # One pair per HIT, so a tick is one socket round trip: about
            # 24k ticks a cycle put the 99th percentile among ordinary
            # ticks.  At 3 or 5 pairs a HIT it fell where the ~100 ticks
            # that carry a gen-1 collection, a round boundary or an fsync
            # begin, and spread 0.14-0.39 over five seeds.
            batch_size=1,
            latency=("constant", 1.0),
            via_http=False,
            status_rate=8.0,
            recovery="replay",
            # Each creation spawns a shard worker: the live phase's one is
            # the only setup sample, so two cycles fit in a run.
            setup_trials=0,
            # Its tick tail is the shard round trips, not this disk's fsync
            # tail (whose 90th percentile swung from 0.1 to 0.9 ms second to
            # second): journal fsyncs are measured on the other two listed
            # workloads.
            fsync_every=1024,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs every check within seconds."""
    shape = workload.shape
    if shape.block_records:
        small = Shape(product_spec(0.1), 1, shape.block_records, shape.near_miss_share)
    else:
        small = Shape(
            shape.histogram if shape.histogram.n_records < 500 else paper_spec(0.2),
            2,
            0,
            min(1.0, shape.near_miss_share * 10),
        )
    return replace(
        workload,
        shape=small,
        latency=(workload.latency[0], min(workload.latency[1], 20.0)),
        setup_trials=1,
    )


def campaign_seed(seed: int, tenant: int) -> int:
    """Each tenant's generator seed: distinct per tenant, fixed per run seed."""
    return seed * 1_000_003 + tenant


__all__ = [
    "Campaign",
    "MICRO_BLOCK_SPEC",
    "SNAPSHOT_RECOVERIES",
    "Shape",
    "WORKLOADS",
    "Workload",
    "campaign_seed",
    "generate",
    "tiny",
]
