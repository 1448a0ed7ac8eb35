"""Every name the benchmark under ``bench/`` hooks still resolves in the package.

The benchmark wraps package functions at the module attributes its callers
look them up by; a refactor that moves or renames one of them leaves that
metric unmeasured. The test reads the benchmark's own site lists and
changes no file under ``bench/``.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import tracer

    with tracer.Patches() as patches:
        tracer.Tracer().install(patches)
        assert patches.absent == []
    for site in (harness.AGGREGATE_SITE, harness.SWEEP_RUN_SITE, harness.SOLVE_DELTA_SITE):
        owner = tracer._resolve(site[0])
        assert callable(getattr(owner, site[1], None)), site
