"""Figure 4: UDF overhead on the simple TPC-H aggregation query."""

from repro.bench import fig04_simple_agg


def test_fig04_simple_agg(run_figure):
    result = run_figure(fig04_simple_agg.run)
    builtin = result.get("REX built-in").last()
    udf = result.get("REX UDF").last()
    wrap = result.get("REX wrap").last()
    hadoop = result.get("Hadoop").last()
    # Paper: built-in and UDF REX faster than Hadoop by more than 3x.
    assert result.headline["rex_vs_hadoop_speedup"] > 3.0
    # Paper: the UDF configuration costs at most a modest premium (~10%).
    # The cost model gives a deterministic 29.389%, a known deviation
    # (EXPERIMENTS.md); the bound sits just above it so drift fails.
    assert builtin < udf < hadoop
    assert result.headline["udf_overhead_pct"] < 35.0
    # Paper: wrap lands between native REX and Hadoop, near Hadoop.
    assert udf < wrap < hadoop
