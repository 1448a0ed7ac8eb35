"""Every benchmark hook at the orchestrator is called by a run, not only importable.

``test_bench_hooks.py`` checks that each name the benchmark wraps still
resolves. A name the round loop still imports but no longer calls passes
that check, and its metric then reads 0. This test reads the benchmark's own
site lists, installs its tracer around a small proposed run and counts the
calls at each orchestrator site. It changes no file under ``bench/``.
"""

from pathlib import Path

from mecfl import io
from mecfl.orchestrator import run_proposed

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_orchestrator_hook_is_called_by_a_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    spans = {**tracer.SPAN_SITES, "learning.train.local": [tracer.TRAIN_SITE],
             "learning.train.edge": [tracer.TRAIN_SITE]}
    sites = {site for where in spans.values() for site in where
             if site[0] == "mecfl.orchestrator"}
    spec = io.ExperimentSpec(seed=0, user_count=3, samples_per_user=20)
    pop, datasets = io.synthesize_users(spec)
    test_dataset = io.load_test_dataset(spec)
    cfg = io.effective_config(spec)
    traced = tracer.Tracer()
    with tracer.Patches() as patches:
        traced.install(patches)
        run_proposed(pop, datasets, cfg, 2, test_dataset=test_dataset)
    # summed per site: the local and the edge span share the one train site
    calls = {site: sum(traced.calls(metric, site) or 0 for metric in spans) for site in sites}
    assert tracer.TRAIN_SITE in calls
    assert sorted(site for site, n in calls.items() if n == 0) == []
