"""Figure 15 benchmark: instant-decision and non-matching-first.

Checks the availability shapes: the plain parallel labeler starves the
platform between rounds, ID keeps it stocked, ID+NF keeps it fullest; all
three crowdsource the same pairs.
"""

from __future__ import annotations

from repro.experiments.fig15_optimizations import run


def test_figure15_paper(benchmark, paper_config, paper_prepared):
    result = benchmark.pedantic(
        run, args=(paper_config,), kwargs={"threshold": 0.3}, rounds=1, iterations=1
    )
    plain = result.row_lookup(variant="parallel")
    with_id = result.row_lookup(variant="parallel_id")
    with_nf = result.row_lookup(variant="parallel_id_nf")
    assert with_id["starvation_events"] <= plain["starvation_events"]
    assert with_nf["mean_available"] >= plain["mean_available"]
    assert plain["crowdsourced"] == with_id["crowdsourced"] == with_nf["crowdsourced"]
    print("\n" + result.render())


def test_figure15_product(benchmark, product_config, product_prepared):
    result = benchmark.pedantic(
        run, args=(product_config,), kwargs={"threshold": 0.3}, rounds=1, iterations=1
    )
    plain = result.row_lookup(variant="parallel")
    with_id = result.row_lookup(variant="parallel_id")
    with_nf = result.row_lookup(variant="parallel_id_nf")
    assert plain["starvation_events"] >= 1, "round boundaries drain the pool"
    assert with_id["starvation_events"] == 0, "ID keeps the pool stocked"
    assert with_nf["starvation_events"] == 0, "ID+NF keeps the pool stocked"
    print("\n" + result.render())
