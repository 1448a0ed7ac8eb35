"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output). Desk scale means 10 users with 200 synthetic samples
each; individual criteria finish well inside a minute.
"""

import numpy as np

from mecfl import io, verify
from mecfl.learning import Dataset, aggregate, evaluate_loss, loss_gradient, weight_dim
from mecfl.orchestrator import run_centralized, run_proposed, run_traditional
from mecfl.types import ModelState, Population, SystemConfig

from helpers import desk_spec

SEEDS = (1, 2, 3)


def check(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def desk_population(seed, **overrides):
    spec = desk_spec(seed=seed, **overrides)
    pop, datasets = io.synthesize_users(spec)
    return spec, pop, datasets, io.load_test_dataset(spec), io.effective_config(spec)


def test_criterion_1_gamma_closed_form_vs_grid_oracle():
    result = verify.check_gamma_closed_form(n_instances=200)
    check(1, result.passed, result.detail)


def test_criterion_2_delta_closed_form_vs_bisection_oracle():
    result = verify.check_delta_closed_form(n_instances=200)
    check(2, result.passed, result.detail)


def test_criterion_3_uplink_closed_form_vs_simplex_oracle():
    result = verify.check_uplink_closed_form(n_instances=50)
    check(3, result.passed, result.detail)


def test_criterion_4_convexity_and_monotonicity_suite():
    result = verify.check_curvature_and_monotonicity(points_per_pair=1000)
    check(4, result.passed, result.detail)


def test_criterion_5_baseline_equivalence():
    _, pop, datasets, test, cfg = desk_population(seed=1, user_count=4,
                                                    samples_per_user=60)
    forced = run_proposed(pop, datasets, cfg, 8, test_dataset=test, force_delta=0.0)
    trad = run_traditional(pop, datasets, cfg, 8, test_dataset=test)
    identical = (
        len(forced.trace) == len(trad.trace)
        and all(
            mf.test_loss == mb.test_loss and mf.t_total == mb.t_total
            and np.array_equal(mf.t_local, mb.t_local)
            and np.array_equal(mf.e_total, mb.e_total)
            for mf, mb in zip(forced.trace, trad.trace)
        )
        and np.array_equal(forced.final_model.global_weights,
                           trad.final_model.global_weights)
    )
    cen = run_centralized(pop, datasets, cfg, 8, test_dataset=test)
    edge_equal = np.array_equal(cen.final_model.global_weights,
                                cen.final_model.edge_weights)
    check(5, identical and edge_equal,
          f"forced-zero run bit-identical to traditional: {identical}; "
          f"full offload aggregates to the edge model: {edge_equal}")


def test_criterion_6_offload_sweep_trends():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    loss_hits = time_hits = 0
    for seed in SEEDS:
        spec, pop, datasets, test, cfg = desk_population(seed=seed)
        losses, times = [], []
        for value in grid:
            run = run_proposed(pop, datasets, cfg, spec.sweep_rounds,
                               test_dataset=test, adapt=False, initial_delta=value,
                               initial_gamma=1.0, stop_on_convergence=False)
            losses.append(run.trace[-1].test_loss)
            times.append(run.trace[-1].t_total)
        if all(b <= a for a, b in zip(losses, losses[1:])):
            loss_hits += 1
        if all(b >= a for a, b in zip(times, times[1:])):
            time_hits += 1
    check(6, loss_hits >= 2 and time_hits >= 2,
          f"test loss non-increasing in delta for {loss_hits}/3 seeds, "
          f"round time non-decreasing for {time_hits}/3 seeds")


def test_criterion_7_cpu_sweep_monotonicity():
    spec = desk_spec(seed=1, scenario="sweep_gamma")
    rows = io.run_sweep(spec)
    t_fixed = [row["t_local_center"] for row in rows]
    e_fixed = [row["e_total_center"] for row in rows]
    strictly_down = all(b < a for a, b in zip(t_fixed, t_fixed[1:]))
    strictly_up = all(b > a for a, b in zip(e_fixed, e_fixed[1:]))
    check(7, strictly_down and strictly_up,
          f"local time strictly decreasing in the CPU fraction: {strictly_down}; "
          f"energy strictly increasing: {strictly_up}")


def test_criterion_8_convergence_energy_and_time():
    converged = energy_ok = faster = 0
    details = []
    for seed in SEEDS:
        _, pop, datasets, test, cfg = desk_population(seed=seed)
        prop = run_proposed(pop, datasets, cfg, 100, test_dataset=test)
        trad = run_traditional(pop, datasets, cfg, 100, test_dataset=test)
        last = prop.trace[-1]
        converged += prop.converged
        energy_ok += all(last.e_total <= pop.energy_budget * (1 + 1e-3))
        faster += last.t_total <= trad.trace[-1].t_total
        details.append(f"seed {seed}: {prop.iterations_used} iters")
    check(8, converged == 3 and energy_ok == 3 and faster == 3,
          f"converged {converged}/3, energy within budget {energy_ok}/3, "
          f"round time <= traditional {faster}/3 ({'; '.join(details)})")


def test_criterion_9_cell_edge_allocation_profile():
    cfg = SystemConfig(learning_rate=0.5, local_epochs=10, rng_seed=5)
    pool = io.synthesize_dataset(400, 16, 4, seed=42, separation=8.0)
    datasets = [pool.take(np.arange(0, 200)), pool.take(np.arange(200, 400))]
    test = io.synthesize_dataset(200, 16, 4, seed=43, separation=8.0)
    pop = Population(transmit_power=[0.2, 0.2], channel_gain=[1e-6, 1e-8],
                     cpu_hz=[1.35e9, 1.35e9], energy_budget=[50.0, 50.0],
                     dataset_size=[200, 200])
    result = run_proposed(pop, datasets, cfg, 100, test_dataset=test)
    alloc = result.final_alloc
    smaller_delta = alloc.delta[1] < alloc.delta[0]
    larger_offload = alloc.uplink_offload[1] > alloc.uplink_offload[0]
    larger_upload = alloc.uplink_weight[1] > alloc.uplink_weight[0]
    check(9, result.converged and smaller_delta and larger_offload and larger_upload,
          f"low-gain user offloads less ({alloc.delta[1]:.3f} < {alloc.delta[0]:.3f}) "
          f"and receives larger shares "
          f"(offload {alloc.uplink_offload[1]:.3f} > {alloc.uplink_offload[0]:.3f}, "
          f"upload {alloc.uplink_weight[1]:.3f} > {alloc.uplink_weight[0]:.3f})")


def test_criterion_10_gradient_check_and_aggregation_weights():
    rng = np.random.default_rng(77)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(100):
        n_features = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 5))
        sample = Dataset(rng.uniform(0, 1, (1, n_features)),
                         [int(rng.integers(0, n_classes))], n_classes)
        w = rng.normal(scale=1.0, size=weight_dim(n_features, n_classes))
        grad = loss_gradient(w, sample.features, sample.labels, n_classes)
        fd = np.empty_like(grad)
        for k in range(w.size):
            bump = np.zeros_like(w)
            bump[k] = h
            fd[k] = (evaluate_loss(w + bump, sample)
                     - evaluate_loss(w - bump, sample)) / (2 * h)
        worst_rel = max(worst_rel,
                        np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-30))
    grads_ok = worst_rel <= 1e-5

    worst_sum = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        sizes = rng.integers(1, 5000, n)
        kept = np.array([rng.integers(0, s + 1) for s in sizes])
        model = ModelState(
            local_weights=rng.normal(size=(n, 3)),
            edge_weights=rng.normal(size=3),
            global_weights=np.zeros(3),
            dataset_sizes=sizes,
            local_trainset_sizes=kept,
            edge_trainset_size=int((sizes - kept).sum()),
        )
        aggregate(model)
        coeff_sum = kept.sum() / sizes.sum() + (sizes - kept).sum() / sizes.sum()
        worst_sum = max(worst_sum, abs(coeff_sum - 1.0))
    sums_ok = worst_sum <= 1e-12
    check(10, grads_ok and sums_ok,
          f"max gradient mismatch {worst_rel:.3g} (tol 1e-5), "
          f"max coefficient-sum error {worst_sum:.3g} (tol 1e-12)")
