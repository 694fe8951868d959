"""CampaignSpec: the one campaign description every entry point accepts."""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro import (
    AggregationConfig,
    CampaignSpec,
    EngineBackend,
    JournalConfig,
    PlatformConfig,
    SpecError,
)
from repro.core.cluster_graph import ConflictPolicy
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import CandidatePair, make_pair
from repro.crowd.budget import BudgetExceededError, BudgetPolicy, CostModel
from repro.crowd.campaign import run_transitive
from repro.crowd.latency import TimeoutPolicy
from repro.crowd.aggregation import WeightedAggregation
from repro.crowd.review import ApproveAll, EscalateOnLowConfidence
from repro.engine import LabelingEngine, vectorized_available
from repro.engine.async_dispatch import AsyncDispatch, CrowdRuntime, RuntimeMode
from repro.spec import SPEC_SCHEMA_VERSION

from ..aio import run_async
from ..engine.reference import RecordingOracle, block_world

PAIRS = [(i, i + 1) for i in range(0, 10, 2)]
ENTITY_OF = {i: i // 2 for i in range(10)}


def full_spec() -> CampaignSpec:
    return CampaignSpec(
        order=[CandidatePair(make_pair(a, b), 0.7) for a, b in PAIRS],
        mode="rounds",
        policy=ConflictPolicy.FIRST_WINS,
        backend="distributed",
        shard_threshold=10,
        spawn_local_workers=2,
        budget=BudgetPolicy(
            max_cost=12.5, max_assignments=400, model=CostModel(price_per_assignment=0.05)
        ),
        timeout=TimeoutPolicy(hit_timeout=900.0, max_reissues=2),
        review=ApproveAll(feedback="thanks"),
        max_rounds=50,
        journal=JournalConfig(fsync_every=2, compact_every=16),
        platform=PlatformConfig(
            kind="in-memory", batch_size=7, n_assignments=2, options={"seed": 3}
        ),
    )


def test_json_round_trip_is_exact():
    spec = full_spec()
    restored = CampaignSpec.from_json(spec.to_json())
    assert restored == spec
    # and canonical: serialising again gives identical bytes
    assert restored.to_json() == spec.to_json()


def test_to_dict_carries_the_schema_version():
    assert full_spec().to_dict()["version"] == SPEC_SCHEMA_VERSION


def test_unknown_schema_version_rejected():
    data = full_spec().to_dict()
    data["version"] = 999
    with pytest.raises(SpecError, match="unsupported spec schema version"):
        CampaignSpec.from_dict(data)


def test_non_scalar_pair_objects_rejected_at_serialization():
    spec = CampaignSpec(order=[((1, 2), (3, 4))])  # tuple object ids
    with pytest.raises(SpecError, match="not JSON-serializable"):
        spec.to_dict()


def test_serial_mode_is_not_speccable():
    with pytest.raises(SpecError, match="SERIAL"):
        CampaignSpec(order=PAIRS, mode="serial")


def test_invalid_mode_rejected_eagerly():
    with pytest.raises(SpecError, match="unknown mode"):
        CampaignSpec(order=PAIRS, mode="warp-speed")


def test_invalid_policy_rejected_eagerly():
    with pytest.raises(SpecError, match="unknown conflict policy"):
        CampaignSpec(order=PAIRS, policy="last-wins")
    data = CampaignSpec(order=PAIRS).to_dict()
    data["policy"] = "last-wins"
    with pytest.raises(SpecError, match="unknown conflict policy"):
        CampaignSpec.from_dict(data)


def test_order_normalises_tuples_pairs_and_candidates():
    spec = CampaignSpec(
        order=[(1, 2), make_pair(3, 4), CandidatePair(make_pair(5, 6), 0.9)]
    )
    assert all(isinstance(item, CandidatePair) for item in spec.order)
    assert [(p.left, p.right) for p in spec.pairs] == [(1, 2), (3, 4), (5, 6)]
    with pytest.raises(SpecError, match="order items"):
        CampaignSpec(order=[42])


def test_journal_config_round_trips_and_defaults():
    spec = full_spec()
    restored = CampaignSpec.from_json(spec.to_json())
    assert restored.journal == JournalConfig(fsync_every=2, compact_every=16)
    # Specs serialized before the journal block existed still load.
    data = spec.to_dict()
    del data["journal"]
    assert CampaignSpec.from_dict(data).journal == JournalConfig()
    # A bare dict in the constructor normalises to JournalConfig.
    assert CampaignSpec(
        order=PAIRS, journal={"compact_every": 5}
    ).journal == JournalConfig(compact_every=5)


@pytest.mark.parametrize("field", ["fsync_every", "compact_every"])
@pytest.mark.parametrize("value", [0, -3])
def test_journal_config_rejects_non_positive_intervals(field, value):
    with pytest.raises(SpecError, match=field):
        JournalConfig(**{field: value})


def test_engine_backend_enum_is_accepted_everywhere():
    assert EngineBackend.VECTORIZED == "vectorized"
    spec = CampaignSpec(order=PAIRS, backend=EngineBackend.MONOLITHIC)
    assert spec.backend == "monolithic"  # normalised to the string value
    engine = spec.build_engine()
    assert engine.backend == "monolithic"
    engine.close()


def test_build_engine_honours_spec_knobs():
    small = CampaignSpec(order=PAIRS, mode="sequential", shard_threshold=100)
    engine = small.build_engine()
    assert engine.backend == "monolithic"  # below the spec's threshold
    engine.close()
    engine = replace(small, shard_threshold=len(PAIRS)).build_engine()
    assert engine.backend == (
        "vectorized" if vectorized_available() else "monolithic"
    )
    engine.close()


def test_retired_parallel_knobs_are_not_accepted():
    """The pipe-worker backend's knobs went with it: no entry point takes
    ``n_workers`` or ``parallel_threshold`` (``spawn_local_workers`` counts
    local workers)."""
    for knob in ({"n_workers": 2}, {"parallel_threshold": 0}):
        with pytest.raises(TypeError):
            CampaignSpec(order=PAIRS, **knob)
        with pytest.raises(TypeError):
            LabelingEngine(PAIRS_AS_PAIRS(), **knob)
        with pytest.raises(TypeError):
            AsyncDispatch(RuntimeMode.ROUNDS, **knob)


def test_sync_dispatch_strategies_accept_spec():
    oracle = GroundTruthOracle(ENTITY_OF)
    spec = CampaignSpec(order=PAIRS, policy=ConflictPolicy.STRICT)
    plain = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(PAIRS_AS_PAIRS(), oracle)
    for dispatch in (
        AsyncDispatch(RuntimeMode.SEQUENTIAL, spec=spec),
        AsyncDispatch(RuntimeMode.ROUNDS, spec=spec),
    ):
        result = dispatch.run(PAIRS_AS_PAIRS(), oracle)
        assert result.labels() == plain.labels()


def PAIRS_AS_PAIRS():
    return [make_pair(a, b) for a, b in PAIRS]


def test_async_dispatch_honours_spec_runtime_settings():
    """The spec's budget, max_rounds and ordering reach the runtime; an
    explicit ``budget=None`` clears the spec's budget."""
    order, truth = block_world(n_blocks=1, objects_per_block=12)
    capped = CampaignSpec(
        order=order, mode="rounds", budget=BudgetPolicy(max_assignments=3)
    )
    with pytest.raises(BudgetExceededError):
        AsyncDispatch(spec=capped).run(order, truth)
    uncapped = AsyncDispatch(spec=capped, budget=None).run(order, truth)
    assert uncapped.labels() == {pair: truth.label(pair) for pair in order}

    one_round = CampaignSpec(order=order, mode="rounds", max_rounds=1)
    with pytest.raises(RuntimeError, match="exceeded 1 rounds"):
        AsyncDispatch(spec=one_round).run(order, truth)

    adaptive = CampaignSpec(order=order, mode="sequential", ordering="expected-value")
    calls = {}
    for name, dispatch in {
        "spec": AsyncDispatch(spec=adaptive),
        "explicit": AsyncDispatch(RuntimeMode.SEQUENTIAL, ordering="expected-value"),
        "static": AsyncDispatch(RuntimeMode.SEQUENTIAL),
    }.items():
        oracle = RecordingOracle(truth)
        dispatch.run(order, oracle)
        calls[name] = oracle.calls
    assert calls["spec"] == calls["explicit"] != calls["static"]


def test_async_dispatch_and_runtime_accept_spec():
    oracle = GroundTruthOracle(ENTITY_OF)
    spec = CampaignSpec(order=PAIRS, mode="rounds")

    async def scenario():
        dispatch = AsyncDispatch(spec=spec)
        return await dispatch.run_async(PAIRS_AS_PAIRS(), oracle)

    result = run_async(scenario())
    reference = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(PAIRS_AS_PAIRS(), oracle)
    assert result.labels() == reference.labels()


def test_crowd_runtime_resolves_policies_from_spec():
    spec = full_spec()
    from repro.crowd.clients import SimulatedPlatformClient

    oracle = GroundTruthOracle(ENTITY_OF)
    engine = spec.build_engine()
    runtime = CrowdRuntime(
        engine, SimulatedPlatformClient.for_oracle(oracle), spec=spec
    )
    assert runtime._mode is RuntimeMode.ROUNDS
    run_async(runtime.run())
    assert engine.is_done


def test_run_transitive_accepts_spec(crowd_platform_factory=None):
    from repro.crowd.latency import FixedLatency
    from repro.crowd.platform import SimulatedPlatform
    from repro.crowd.worker import make_worker_pool

    oracle = GroundTruthOracle(ENTITY_OF)

    def platform():
        return SimulatedPlatform(
            workers=make_worker_pool(4, seed=0),
            truth=oracle,
            latency=FixedLatency(),
            batch_size=3,
            n_assignments=3,
            seed=0,
        )

    spec = CampaignSpec(order=PAIRS, mode="instant")
    via_spec = run_transitive(platform=platform(), spec=spec)
    legacy = run_transitive(PAIRS_AS_PAIRS(), platform(), True)
    assert via_spec.labels == legacy.labels
    assert via_spec.n_hits == legacy.n_hits


def test_review_policy_encoding_rejects_custom_policies():
    class CustomReview:
        def review(self, completion):  # pragma: no cover - shape only
            return []

    spec_dict_ok = CampaignSpec(order=PAIRS, review=ApproveAll()).to_dict()
    assert spec_dict_ok["review"] == {"kind": "approve-all", "feedback": "Thank you!"}
    with pytest.raises(SpecError):
        CampaignSpec(order=PAIRS, review=CustomReview()).to_dict()


def test_curated_public_api():
    # every curated name resolves ...
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []
    # ... and the service layer is first-class.
    for name in ("CampaignSpec", "CampaignService", "CampaignHTTPServer", "Journal"):
        assert name in repro.__all__


class TestOrderingField:
    def test_default_is_static(self):
        assert CampaignSpec(order=PAIRS).ordering == "static"

    def test_expected_value_requires_sequential_mode(self):
        with pytest.raises(SpecError, match="sequential"):
            CampaignSpec(order=PAIRS, mode="rounds", ordering="expected-value")

    def test_unknown_ordering_rejected(self):
        with pytest.raises(SpecError, match="ordering"):
            CampaignSpec(order=PAIRS, ordering="psychic")

    def test_ordering_round_trips(self):
        spec = CampaignSpec(
            order=PAIRS, mode="sequential", ordering="expected-value"
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored.ordering == "expected-value"
        assert restored == spec


class TestAggregationConfig:
    def test_default_is_flat_majority_with_no_runtime_aggregator(self):
        spec = CampaignSpec(order=PAIRS)
        assert spec.aggregation == AggregationConfig()
        assert spec.make_aggregation() is None

    def test_weighted_config_builds_a_fresh_aggregator_each_call(self):
        spec = CampaignSpec(
            order=PAIRS,
            aggregation=AggregationConfig(
                kind="weighted", prior_accuracy=0.8, min_votes=2
            ),
        )
        first = spec.make_aggregation()
        second = spec.make_aggregation()
        assert isinstance(first, WeightedAggregation)
        assert first is not second
        assert first.tracker is not second.tracker
        assert first.tracker.prior_accuracy == 0.8
        assert first.min_votes == 2

    def test_mapping_in_constructor_normalises(self):
        spec = CampaignSpec(order=PAIRS, aggregation={"kind": "weighted"})
        assert spec.aggregation == AggregationConfig(kind="weighted")

    def test_round_trips_through_json(self):
        spec = CampaignSpec(
            order=PAIRS,
            aggregation=AggregationConfig(
                kind="weighted",
                prior_accuracy=0.75,
                prior_strength=4.0,
                agreement_weight=0.25,
                min_votes=2,
            ),
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored.aggregation == spec.aggregation
        assert restored == spec

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"kind": "alchemy"}, "aggregation kind"),
            ({"prior_accuracy": 0.0}, "prior_accuracy"),
            ({"prior_strength": -1.0}, "prior_strength"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs, match):
        with pytest.raises(SpecError, match=match):
            AggregationConfig(**kwargs)


class TestSchemaVersion2:
    def test_escalation_review_round_trips(self):
        spec = CampaignSpec(
            order=PAIRS,
            review=EscalateOnLowConfidence(min_confidence=0.8, feedback="check"),
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert isinstance(restored.review, EscalateOnLowConfidence)
        assert restored.review.min_confidence == 0.8
        assert restored.review.feedback == "check"

    def test_version_1_documents_decode_with_pre_2_defaults(self):
        data = CampaignSpec(order=PAIRS).to_dict()
        data["version"] = 1
        data["backend"] = "sharded"
        del data["ordering"]
        del data["aggregation"]
        spec = CampaignSpec.from_dict(data)
        assert spec.ordering == "static"
        assert spec.aggregation == AggregationConfig()
        assert spec.backend == "monolithic"

    def test_current_documents_carry_version_3(self):
        assert SPEC_SCHEMA_VERSION == 3
        data = CampaignSpec(order=PAIRS).to_dict()
        assert data["version"] == 3
        assert data["ordering"] == "static"
        assert data["aggregation"]["kind"] == "majority"
        assert data["workers"] is None
        assert data["spawn_local_workers"] is None
        assert "n_workers" not in data
        assert "parallel_threshold" not in data

    def test_version_2_documents_decode_without_distributed_knobs(self):
        data = CampaignSpec(order=PAIRS).to_dict()
        data["version"] = 2
        data["backend"] = "sharded"
        del data["workers"]
        del data["spawn_local_workers"]
        spec = CampaignSpec.from_dict(data)
        assert spec.workers is None
        assert spec.spawn_local_workers is None
        assert spec.backend == "monolithic"

    def test_version_3_sharded_documents_decode_as_monolithic(self):
        """``sharded`` was an in-process backend, fingerprint-identical to
        ``monolithic`` and folded into it: a document naming it builds a
        monolithic engine and re-encodes as such."""
        data = CampaignSpec(order=PAIRS, mode="sequential").to_dict()
        assert data["version"] == 3
        data["backend"] = "sharded"
        spec = CampaignSpec.from_dict(data)
        assert spec.backend == "monolithic"
        assert spec.to_dict()["backend"] == "monolithic"
        engine = spec.build_engine()
        assert engine.backend == "monolithic"
        engine.close()

    def test_version_3_parallel_documents_decode_as_auto(self):
        """``parallel`` ran the shard protocol over pipe workers and was
        retired: a document naming it builds the ``auto`` backend, ignores
        its ``parallel_threshold``, and keeps its ``n_workers`` as the
        local worker count."""
        data = CampaignSpec(order=PAIRS, mode="sequential").to_dict()
        data.update(backend="parallel", parallel_threshold=0, n_workers=2)
        spec = CampaignSpec.from_dict(data)
        assert spec.backend == "auto"
        assert spec.spawn_local_workers == 2
        encoded = spec.to_dict()
        assert encoded["backend"] == "auto"
        assert "parallel_threshold" not in encoded and "n_workers" not in encoded
        engine = spec.build_engine()
        assert engine.backend == "monolithic"  # auto, below the threshold
        assert engine.executor is None
        engine.close()

    def test_legacy_n_workers_counts_local_workers(self):
        """A distributed document from before ``n_workers`` went builds
        that many local workers, unless it also names ``workers`` or
        ``spawn_local_workers``."""
        data = CampaignSpec(order=PAIRS, backend="distributed").to_dict()
        data["n_workers"] = 2
        spec = CampaignSpec.from_dict(data)
        assert spec.spawn_local_workers == 2
        with spec.build_engine() as engine:
            assert engine.executor.n_workers == 2
            assert len(engine.executor.worker_pids()) == 2
        assert CampaignSpec.from_dict(
            {**data, "spawn_local_workers": 1}
        ).spawn_local_workers == 1
        remote = CampaignSpec.from_dict({**data, "workers": ["alpha:9000"]})
        assert remote.spawn_local_workers is None

    def test_workers_round_trip_and_validation(self):
        spec = CampaignSpec(
            order=PAIRS,
            backend="distributed",
            workers=["alpha:9000", "beta:9001"],
            spawn_local_workers=2,
        )
        assert spec.workers == ("alpha:9000", "beta:9001")
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored.workers == ("alpha:9000", "beta:9001")
        assert restored.spawn_local_workers == 2
        assert restored == spec
        with pytest.raises(SpecError):
            CampaignSpec(order=PAIRS, workers="alpha:9000")
        with pytest.raises(SpecError):
            CampaignSpec(order=PAIRS, workers=["no-port"])
