"""Small-scale smoke + shape tests for every table/figure runner.

Each paper experiment is run at a reduced dataset scale and checked for the
*shape* properties the paper reports (who wins, monotonicity, orderings) —
the full-scale numbers live in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import prepare
from repro.experiments.registry import all_experiment_ids, run_experiment
from repro.experiments.reporting import ExperimentResult, render_series, render_table
from repro.experiments import (
    fig10_cluster_sizes,
    fig11_transitive_effectiveness,
    fig12_labeling_orders,
    fig13_14_parallel_iterations,
    fig15_optimizations,
    table1_completion_time,
    table2_quality,
)

SCALE = 0.18
THRESHOLDS = (0.5, 0.3, 0.1)


def config(dataset: str) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=dataset, scale=SCALE, thresholds=THRESHOLDS, n_workers=12
    )


@pytest.fixture(scope="module")
def paper_config():
    cfg = config("paper")
    prepare(cfg)  # warm the cache once for the module
    return cfg


@pytest.fixture(scope="module")
def product_config():
    cfg = config("product")
    prepare(cfg)
    return cfg


class TestConfig:
    def test_rejects_unknown_dataset(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="imdb")

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(scale=1.5)

    def test_rejects_thresholds_below_base(self):
        with pytest.raises(ValueError):
            ExperimentConfig(base_threshold=0.3, thresholds=(0.2,))

    def test_with_dataset(self):
        cfg = ExperimentConfig(dataset="paper").with_dataset("product")
        assert cfg.dataset == "product"


class TestHarness:
    def test_prepare_is_cached(self, paper_config):
        assert prepare(paper_config) is prepare(paper_config)

    def test_candidates_sorted_by_likelihood(self, paper_config):
        prepared = prepare(paper_config)
        likelihoods = [c.likelihood for c in prepared.candidates]
        assert likelihoods == sorted(likelihoods, reverse=True)

    def test_rethresholding(self, paper_config):
        prepared = prepare(paper_config)
        strict = prepared.candidates_above(0.5)
        loose = prepared.candidates_above(0.3)
        assert len(strict) <= len(loose)
        assert all(c.likelihood > 0.5 for c in strict)


class TestFigure10:
    def test_paper_histogram_has_heavy_tail(self, paper_config):
        result = fig10_cluster_sizes.run(paper_config)
        sizes = result.series["cluster_sizes"]
        assert max(sizes) >= 30  # scaled Cora keeps a large cluster

    def test_product_histogram_is_tiny_clusters(self, product_config):
        result = fig10_cluster_sizes.run(product_config)
        assert max(result.series["cluster_sizes"]) <= 6

    def test_counts_sum_to_entities(self, paper_config):
        result = fig10_cluster_sizes.run(paper_config)
        from repro.experiments.harness import generate_dataset

        dataset = generate_dataset(paper_config)
        assert sum(result.series["cluster_counts"]) == len(dataset.clusters())


class TestFigure11:
    def test_transitive_never_exceeds_baseline(self, paper_config):
        result = fig11_transitive_effectiveness.run(paper_config)
        for row in result.rows:
            assert row["transitive"] <= row["non_transitive"]

    def test_paper_savings_are_large(self, paper_config):
        result = fig11_transitive_effectiveness.run(paper_config)
        row = result.row_lookup(threshold=0.3)
        assert row["savings_pct"] > 80.0

    def test_product_savings_are_modest_and_grow(self, product_config):
        result = fig11_transitive_effectiveness.run(product_config)
        by_threshold = {row["threshold"]: row["savings_pct"] for row in result.rows}
        assert by_threshold[0.5] < 10.0
        assert by_threshold[0.1] > by_threshold[0.5]
        assert by_threshold[0.1] < 60.0

    def test_candidates_grow_as_threshold_drops(self, paper_config):
        result = fig11_transitive_effectiveness.run(paper_config)
        counts = result.series["non_transitive"]
        assert counts == sorted(counts)


class TestFigure12:
    def test_order_hierarchy(self, paper_config):
        """Optimal <= expected <= worst and optimal <= random <= worst."""
        result = fig12_labeling_orders.run(paper_config)
        for row in result.rows:
            assert row["optimal"] <= row["expected"] + 1e-9
            assert row["optimal"] <= row["random"]
            assert row["random"] <= row["worst"] * 1.05
            assert row["expected"] <= row["worst"]

    def test_worst_blows_up_at_low_threshold(self, paper_config):
        result = fig12_labeling_orders.run(paper_config)
        row = result.row_lookup(threshold=0.1)
        assert row["worst"] > 3 * row["optimal"]


class TestFigures13And14:
    def test_parallel_rounds_are_front_loaded(self, paper_config):
        result = fig13_14_parallel_iterations.run(paper_config, threshold=0.3)
        sizes = result.series["parallel_round_sizes"]
        assert sizes[0] == max(sizes)
        assert sizes[0] > sum(sizes) / 2

    def test_far_fewer_rounds_than_pairs(self, paper_config):
        result = fig13_14_parallel_iterations.run(paper_config, threshold=0.3)
        sizes = result.series["parallel_round_sizes"]
        assert len(sizes) < sum(sizes) / 5

    def test_figure14_uses_threshold_04(self, paper_config):
        result = fig13_14_parallel_iterations.run(paper_config, threshold=0.4)
        assert result.experiment_id == "figure14"


@pytest.fixture(scope="module")
def figure15_product():
    """Figure 15 at a scale where its variants differ: at ``SCALE`` the
    instant labelers publish everything in one round, and all three rows
    print alike."""
    cfg = ExperimentConfig(
        dataset="product", scale=0.2, thresholds=THRESHOLDS, n_workers=12
    )
    return fig15_optimizations.run(cfg, threshold=0.3)


class TestFigure15:
    def test_plain_parallel_drains_between_rounds(self, figure15_product):
        plain = figure15_product.row_lookup(variant="parallel")
        assert plain["starvation_events"] >= 1

    def test_id_reduces_starvation(self, figure15_product):
        """ID and ID+NF never leave the pool empty mid-run."""
        for variant in ("parallel_id", "parallel_id_nf"):
            row = figure15_product.row_lookup(variant=variant)
            assert row["starvation_events"] == 0, variant
            assert row["min_available_mid_run"] >= 1, variant

    def test_same_crowdsourced_across_variants(self, figure15_product):
        counts = {row["crowdsourced"] for row in figure15_product.rows}
        assert len(counts) == 1

    def test_nf_has_highest_mean_availability(self, figure15_product):
        mean = {
            row["variant"]: row["mean_available"] for row in figure15_product.rows
        }
        assert mean["parallel_id_nf"] >= mean["parallel_id"] >= mean["parallel"]


class TestTable1:
    def test_parallel_is_faster_same_cost(self, paper_config):
        result = table1_completion_time.run(paper_config, threshold=0.3)
        non_parallel = result.row_lookup(strategy="non_parallel")
        parallel = result.row_lookup(strategy="parallel_id")
        assert parallel["hours"] < non_parallel["hours"]
        assert parallel["n_hits"] == non_parallel["n_hits"]
        assert parallel["cost_usd"] == pytest.approx(non_parallel["cost_usd"])


class TestTable2:
    def test_transitive_saves_hits_on_paper(self, paper_config):
        result = table2_quality.run(paper_config, threshold=0.3)
        non_transitive = result.row_lookup(strategy="non_transitive")
        transitive = result.row_lookup(strategy="transitive")
        assert transitive["n_hits"] < non_transitive["n_hits"] * 0.3
        assert transitive["f_measure"] > 50.0  # quality loss is bounded

    def test_quality_columns_are_percentages(self, paper_config):
        result = table2_quality.run(paper_config, threshold=0.3)
        for row in result.rows:
            for column in ("precision", "recall", "f_measure"):
                assert 0.0 <= row[column] <= 100.0


class TestRegistryAndReporting:
    def test_registry_covers_all_paper_results(self):
        paper_ids = [
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "table1",
            "table2",
        ]
        assert all_experiment_ids()[: len(paper_ids)] == paper_ids
        ablation_ids = all_experiment_ids()[len(paper_ids) :]
        assert ablation_ids and all(i.startswith("ablation-") for i in ablation_ids)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_run_experiment_dispatches(self, paper_config):
        result = run_experiment("figure10", paper_config)
        assert result.experiment_id == "figure10"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 10}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "10" in lines[3]
        assert "-" in lines[3]  # missing cell placeholder

    def test_render_series_wraps(self):
        text = render_series("xs", list(range(30)), per_line=10)
        assert text.count("\n") == 3

    def test_result_render_includes_notes(self):
        result = ExperimentResult("figure0", "demo", columns=["x"], rows=[{"x": 1}])
        result.notes.append("hello note")
        assert "hello note" in result.render()

    def test_row_lookup_raises_on_miss(self):
        result = ExperimentResult("figure0", "demo", columns=["x"], rows=[{"x": 1}])
        with pytest.raises(KeyError):
            result.row_lookup(x=2)
