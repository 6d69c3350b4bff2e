"""The benchmark's arithmetic: tail rule, layer folding, pair verdicts."""

import cProfile
import math

import pytest

from compare import compare_metric
from layers import WAIT_KEY, code_key, fold_self_time, ncalls
from measure import SRC, beta_cdf, quantile, tail_percentile


@pytest.mark.parametrize("n, pct", [(100, 90), (50, 80), (30, 66), (21, 52), (20, 50), (3, 50)])
def test_tail_percentile_examples(n, pct):
    assert tail_percentile(n) == pct


@pytest.mark.parametrize("n", range(21, 400))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    pct = tail_percentile(n)
    beyond = lambda p: n - math.ceil(p * n / 100)  # noqa: E731
    assert beyond(pct) >= 10
    assert pct == 99 or beyond(pct + 1) < 10


@pytest.mark.parametrize("a, b", [(1, 1), (2.5, 1), (1, 7), (30.5, 30.5), (2971.0, 31.0)])
def test_beta_cdf_identities(a, b):
    for x in (0.001, 0.1, 0.37, 0.5, 0.9, 0.99):
        assert beta_cdf(a, b, x) == pytest.approx(1 - beta_cdf(b, a, 1 - x), abs=1e-12)
        if a == 1:
            assert beta_cdf(a, b, x) == pytest.approx(1 - (1 - x) ** b, abs=1e-12)
        if b == 1:
            assert beta_cdf(a, b, x) == pytest.approx(x ** a, abs=1e-12)


def test_quantile_estimates():
    assert quantile([3.0] * 40, 0.8) == pytest.approx(3.0)
    assert quantile(range(1, 102), 0.5) == pytest.approx(51.0)
    # between two clusters the estimate blends them instead of jumping
    # to whichever order statistic sits at the rank
    clustered = [1.0] * 25 + [3.0] * 25
    assert 1.0 < quantile(clustered, 0.5) < 3.0
    grown = clustered[:24] + [3.0] * 26
    assert quantile(grown, 0.5) - quantile(clustered, 0.5) < 1.0


def test_fold_partitions_self_time_by_layer():
    repro = SRC / "repro"
    table = {
        (str(repro / "sim" / "kernel.py"), 10, "call_in"): (5, 5, 0.5, 0.5, {}),
        (str(repro / "sim" / "timerwheel.py"), 3, "push"): (1, 1, 0.25, 0.25, {}),
        (str(repro / "net" / "link.py"), 7, "_allocate"): (1, 1, 0.125, 0.2, {}),
        (str(repro / "analysis" / "stats.py"), 1, "mean"): (1, 1, 0.0625, 0.1, {}),
        ("/usr/lib/python3/json/encoder.py", 1, "encode"): (1, 1, 0.03125, 0.1, {}),
        ("~", 0, "<built-in method builtins.sorted>"): (1, 1, 0.015625, 0.1, {}),
        WAIT_KEY: (1, 1, 2.0, 2.0, {}),
    }
    folded = fold_self_time(table, SRC)
    assert folded["sim"] == 0.75
    assert folded["sim.kernel"] == 0.5
    assert folded["net"] == folded["net.link"] == 0.125
    assert folded["stdlib"] == 0.0625 + 0.03125 + 0.015625
    assert folded["wait"] == 2.0
    layers = [k for k in folded if "." not in k]
    assert sum(folded[k] for k in layers) == sum(v[2] for v in table.values())


def test_code_key_matches_profiler_entries():
    from layers import load_table
    from repro.sim.kernel import Simulator

    sim = Simulator()
    profile = cProfile.Profile()
    profile.enable()
    for i in range(7):
        sim.call_in(0.1 * i, lambda: None)
    sim.run()
    profile.disable()
    table = load_table(profile)
    assert ncalls(table, code_key(Simulator.call_in)) == 7
    assert ncalls(table, code_key(Simulator.call_at)) == 0


def test_pair_verdicts():
    parent = [100.0 + i for i in range(10)]
    faster = [120.0 + i for i in range(10)]
    assert compare_metric(parent, faster, "higher", 0.1)["verdict"] == "gain"
    assert compare_metric(parent, faster, "lower", 0.1)["verdict"] == "REGRESSION"
    assert compare_metric(parent, list(parent), "lower", 0.1)["verdict"] == "ok"
    noisy = [50.0, 150.0] * 5
    assert compare_metric(noisy, list(noisy), "lower", 0.1)["verdict"] == "unresolved"
    # winning every pair is not a gain while the medians differ by less
    # than the parent's IQR
    assert compare_metric(parent, [p + 0.5 for p in parent], "higher", None)["verdict"] == "-"
