import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mecfl.errors import ValidationError
from mecfl.optimizer import solve_delta
from mecfl.types import (
    AllocationState,
    ModelState,
    Population,
    RoundMetrics,
    SystemConfig,
    validate_allocation,
)

from helpers import balance_of_first, make_alloc, make_pop


# The offload sweep projects each balance point onto the unit interval inline
# in solve_delta; user 0 answers first, against the others' previous fractions.
def test_project_clamps_above():
    # enormous edge CPU and uplink: only the local training term survives
    cfg = SystemConfig(edge_cpu_hz=1e30)
    pop = make_pop(gain=1e-2, samples=1, cpu=1e8)
    alloc = make_alloc(1, delta=0.3, gamma=1.0, offload=[0.5], upload=[0.5])
    assert balance_of_first(pop, alloc, 10000, cfg) > 1.0
    assert solve_delta(pop, alloc, 10000, cfg)[0] == 1.0


def test_project_clamps_below():
    # the other user's offloaded rows overload a slow edge
    cfg = SystemConfig(edge_cpu_hz=1e6)
    pop = make_pop(samples=[100, 100000])
    alloc = make_alloc(2, delta=[0.5, 1.0], gamma=1.0, offload=[0.4, 0.4], upload=[0.4, 0.4])
    assert balance_of_first(pop, alloc, 100, cfg) < 0.0
    d = solve_delta(pop, alloc, 100, cfg)[0]
    assert d == 0.0 and math.copysign(1.0, d) == 1.0   # +0, not -0


def test_project_interior_fixed_point():
    cfg = SystemConfig()
    for n in (1, 2):
        pop, alloc = make_pop(n), make_alloc(n)
        balance = balance_of_first(pop, alloc, 200, cfg)
        assert 0.0 < balance < 1.0
        assert solve_delta(pop, alloc, 200, cfg)[0] == balance   # keeps its bits


def test_validate_allocation_accepts_feasible_point():
    alloc = AllocationState(
        delta=[0.5, 0.5], gamma=[0.5, 0.5],
        uplink_offload=[0.5, 0.5], uplink_weight=[0.3, 0.3],
        lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5],
    )
    assert validate_allocation(alloc, 2) is alloc


def _excess(error: ValidationError) -> float:
    """The excess over 1 that a share-sum message reports."""
    return float(str(error).split("exceeding 1 by ")[1])


def test_offload_simplex_violation():
    with pytest.raises(ValidationError, match="^uplink_offload shares sum to ") as excinfo:
        AllocationState(
            delta=[0.5, 0.5], gamma=[0.5, 0.5],
            uplink_offload=[0.7, 0.7], uplink_weight=[0.3, 0.3],
            lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5],
        )
    assert _excess(excinfo.value) == pytest.approx(0.4)


def test_delta_out_of_range():
    with pytest.raises(ValidationError, match=r"^user 0: delta=1\.2 outside its allowed range$"):
        AllocationState(
            delta=[1.2, 0.0], gamma=[0.5, 0.5],
            uplink_offload=[0.5, 0.5], uplink_weight=[0.3, 0.3],
            lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5],
        )


def test_negative_multiplier_rejected():
    with pytest.raises(ValidationError, match="^user 0: lambda_offload=-0.1 outside its allowed "
                                              "range$"):
        make_alloc(2, lam_offload=[-0.1, 0.5])


def test_validate_allocation_length_mismatch():
    alloc = make_alloc(2)
    with pytest.raises(ValidationError):
        validate_allocation(alloc, 3)


def test_validate_allocation_checks_the_constructors_copy_without_another():
    # 100,000 users: the six fields are 4.8 MB of floats, which a second
    # stack of them would allocate again
    alloc = AllocationState.uniform(100_000, delta=0.5, gamma=0.5)
    tracemalloc.start()
    try:
        validate_allocation(alloc, alloc.n_users)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * alloc.n_users * 8, f"validate_allocation peaked at {peak} bytes"


def test_allocation_arrays_are_read_only():
    alloc = make_alloc(3)
    with pytest.raises(ValueError):
        alloc.delta[0] = 0.9


def test_uniform_constructor_is_feasible():
    alloc = AllocationState.uniform(7)
    assert alloc.n_users == 7
    assert alloc.uplink_offload.sum() == pytest.approx(1.0)
    assert np.all(alloc.lambda_offload == 0.5) and np.all(alloc.lambda_local == 0.5)


def test_uniform_constructor_refuses_zero_users():
    # used to raise ZeroDivisionError from 1.0 / n_users
    with pytest.raises(ValidationError, match="^AllocationState: at least one user required$"):
        AllocationState.uniform(0)


@pytest.mark.parametrize("bad", [-1, 2.5, True])
def test_uniform_constructor_refuses_a_user_count_that_is_not_a_positive_integer(bad):
    # -1 used to raise numpy's bare ValueError, 2.5 and True a TypeError
    with pytest.raises(ValidationError, match=rf"^AllocationState.uniform: n_users must be an "
                                              rf"integer >= 1, got {bad!r}$"):
        AllocationState.uniform(bad)


@pytest.mark.parametrize("seed", [-3, 2**63, True])
def test_system_config_rejects_a_seed_outside_0_to_2_63(seed):
    with pytest.raises(ValidationError, match="rng_seed"):
        SystemConfig(rng_seed=seed)


def test_system_config_rejects_nonpositive_constants():
    with pytest.raises(ValidationError):
        SystemConfig(bandwidth_hz=0.0)
    with pytest.raises(ValidationError):
        SystemConfig(noise_power=-1e-9)
    with pytest.raises(ValidationError):
        SystemConfig(convergence_tol=0.0)
    with pytest.raises(ValidationError):
        SystemConfig(batch_size=0)


@pytest.mark.parametrize("field, message", [
    ("loss_weight", "score weights must be >= 0"),
    ("time_weight", "score weights must be >= 0"),
    ("local_epochs", "local_epochs must be >= 0"),
])
def test_system_config_rejects_a_negative_score_weight_or_epoch_count(field, message):
    with pytest.raises(ValidationError, match=f"^SystemConfig: {message}$"):
        SystemConfig(**{field: -1})


def test_user_profile_invariants():
    with pytest.raises(ValidationError):
        make_pop(power=0.0, gain=1e-6, cpu=1e9, budget=1.0, samples=10)
    with pytest.raises(ValidationError):
        make_pop(power=0.2, gain=1e-6, cpu=1e9, budget=1.0, samples=0)


@pytest.mark.parametrize("field", ["transmit_power", "channel_gain", "cpu_hz", "energy_budget"])
@pytest.mark.parametrize("bad", [-0.2, 0.0, float("nan"), float("inf")])
def test_population_rejects_a_nonpositive_or_non_finite_physical_value(field, bad):
    good = make_pop(4)
    values = getattr(good, field).copy()
    values[[1, 3]] = bad
    with pytest.raises(ValidationError,
                       match=rf"^Population: {field}\[1\] must be finite and > 0, got {bad!r}$"):
        replace(good, **{field: values})


@pytest.mark.parametrize("bad", [1.5, 0, -3, float("nan"), float("inf")])
def test_population_rejects_a_dataset_size_that_is_not_a_positive_integer(bad):
    with pytest.raises(ValidationError,
                       match=rf"^Population: dataset_size\[2\] must be an integer >= 1, "
                             rf"got {float(bad)!r}$"):
        make_pop(samples=[10, 20, bad, bad])


@pytest.mark.parametrize("bad", [2.0**63, 1e300])
def test_population_rejects_a_dataset_size_beyond_int64(bad):
    # used to warn "invalid value encountered in cast" and store -2**63
    with pytest.raises(ValidationError,
                       match=rf"^Population: dataset_size\[2\] must be an integer < 2\*\*63, "
                             rf"got {re.escape(repr(bad))}$"):
        make_pop(samples=[10, 20, bad, bad])
    make_pop(samples=[10, 20, 2.0**63 - 1024])   # the largest float below 2**63 fits


def test_population_holds_integral_sizes_as_integers():
    pop = make_pop(samples=[10.0, 20])
    assert pop.dataset_size.dtype == np.int64 and pop.dataset_size.tolist() == [10, 20]


@pytest.mark.parametrize("fields", [dict(cpu_hz=[1e9]), dict(dataset_size=[[10, 20]]),
                                    dict(transmit_power=[], channel_gain=[], cpu_hz=[],
                                         energy_budget=[], dataset_size=[])])
def test_population_needs_one_entry_per_user_in_every_field(fields):
    good = make_pop(2)
    with pytest.raises(ValidationError, match="one entry per user in every field"):
        replace(good, **fields)


def test_model_state_dimension_mismatch():
    with pytest.raises(ValidationError):
        ModelState(
            local_weights=np.zeros((2, 5)),
            edge_weights=np.zeros(4),
            global_weights=np.zeros(5),
            dataset_sizes=[10, 10],
            local_trainset_sizes=[10, 10],
            edge_trainset_size=0,
        )


def test_model_state_local_size_cannot_exceed_pool():
    with pytest.raises(ValidationError):
        ModelState(
            local_weights=np.zeros((1, 3)),
            edge_weights=np.zeros(3),
            global_weights=np.zeros(3),
            dataset_sizes=[10],
            local_trainset_sizes=[11],
            edge_trainset_size=0,
        )


MODEL_STATE = dict(local_weights=np.zeros((2, 3)), edge_weights=np.zeros(3),
                   global_weights=np.zeros(3), dataset_sizes=[10, 10],
                   local_trainset_sizes=[10, 5], edge_trainset_size=5)


@pytest.mark.parametrize("overrides, message", [
    (dict(local_weights=np.zeros(3)), r"local_weights must be 2-d \(n_users, dim\)"),
    (dict(dataset_sizes=[10, 10, 10]), "size bookkeeping must have one entry per user"),
    (dict(local_trainset_sizes=[10]), "size bookkeeping must have one entry per user"),
    (dict(dataset_sizes=[0, 10], local_trainset_sizes=[0, 5]), "dataset sizes must be >= 1"),
    (dict(local_trainset_sizes=[-1, 5]),
     r"local trainset sizes must lie in \[0, dataset size\]"),
    (dict(edge_trainset_size=-1), "edge_trainset_size must be >= 0"),
])
def test_model_state_invariants(overrides, message):
    ModelState(**MODEL_STATE)
    with pytest.raises(ValidationError, match=f"^ModelState: {message}$"):
        ModelState(**{**MODEL_STATE, **overrides})


@pytest.mark.parametrize("field", ["t_edge", "t_total"])
def test_round_metrics_rejects_a_negative_edge_or_round_time(field):
    good = dict(t_local=[1.0], t_edge=0.5, t_total=1.0, e_total=[0.0],
                train_loss=0.0, test_loss=0.0, weighted_score=0.0)
    RoundMetrics(**good)
    with pytest.raises(ValidationError, match=r"^RoundMetrics: times must be >= 0$"):
        RoundMetrics(**{**good, field: -1.0})


def test_allocation_of_no_users_rejected():
    with pytest.raises(ValidationError, match="^AllocationState: at least one user required$"):
        AllocationState(**{name: [] for name in AllocationState._FIELDS})


def test_round_metrics_rejects_negative_time():
    with pytest.raises(ValidationError):
        RoundMetrics(t_local=[-1.0], t_edge=0.0, t_total=0.0, e_total=[0.0],
                     train_loss=0.0, test_loss=0.0, weighted_score=0.0)


FEASIBLE_TWO_USERS = dict(delta=[0.5, 0.5], gamma=[0.5, 0.5],
                          uplink_offload=[0.5, 0.5], uplink_weight=[0.3, 0.3],
                          lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5])


NOT_FINITE, OUT_OF_RANGE, SUM = "is not finite", "outside its allowed range", "shares sum to"
# test ids: one word per violation, kept stable so that each case keeps its name
_VIOLATION_IDS = {NOT_FINITE: "ValidationError", OUT_OF_RANGE: "OutOfRange", SUM: "SumExceedsOne"}


def _case_id(value):
    return _VIOLATION_IDS.get(value) if isinstance(value, str) else None


PRECEDENCE_CASES = [
    # non-finite beats an out-of-range entry in an earlier field
    (dict(delta=[1.5, 0.5], lambda_local=[0.5, float("nan")]),
     NOT_FINITE, "lambda_local", 1),
    # out of range beats an oversized share sum
    (dict(gamma=[0.5, -0.2], uplink_offload=[0.8, 0.8]), OUT_OF_RANGE, "gamma", 1),
    # the first field in field order wins, whatever the user index
    (dict(delta=[0.5, 1.2], gamma=[-0.5, 0.5]), OUT_OF_RANGE, "delta", 1),
    (dict(uplink_weight=[0.3, 1.5], lambda_offload=[-1.0, 0.5]),
     OUT_OF_RANGE, "uplink_weight", 1),
    # within one field the lowest user index wins
    (dict(gamma=[2.0, 3.0]), OUT_OF_RANGE, "gamma", 0),
    # both share sums too large: the offload simplex is reported
    (dict(uplink_offload=[0.6, 0.6], uplink_weight=[0.9, 0.9]),
     SUM, "uplink_offload", None),
]


@pytest.mark.parametrize("overrides, violation, field, index", PRECEDENCE_CASES, ids=_case_id)
def test_validation_precedence_when_violations_co_occur(overrides, violation, field, index):
    with pytest.raises(ValidationError) as excinfo:
        AllocationState(**{**FEASIBLE_TWO_USERS, **overrides})
    assert type(excinfo.value) is ValidationError
    message = str(excinfo.value)
    assert violation in message
    if violation == OUT_OF_RANGE:
        assert message.startswith(f"user {index}: {field}=")
    elif violation == SUM:
        assert message.startswith(f"{field} {SUM} ")
    else:
        assert f"{field}[{index}] {NOT_FINITE}" in message


@pytest.mark.parametrize("overrides, violation, field, index", PRECEDENCE_CASES, ids=_case_id)
def test_bad_candidate_in_a_stack_raises_as_in_one_d(overrides, violation, field, index):
    # candidates 0 and 2 are feasible, candidate 1 carries the violations
    stack = {name: np.array([value, overrides.get(name, value), value])
             for name, value in FEASIBLE_TWO_USERS.items()}
    with pytest.raises(ValidationError) as one_d:
        AllocationState(**{**FEASIBLE_TWO_USERS, **overrides})
    with pytest.raises(ValidationError) as stacked:
        AllocationState(**stack)
    assert type(stacked.value) is type(one_d.value) is ValidationError
    if violation == NOT_FINITE:
        assert f"{field}[1, {index}] {NOT_FINITE}" in str(stacked.value)
    else:
        assert violation in str(stacked.value)
        assert str(stacked.value) == str(one_d.value)
    if violation == SUM:
        assert _excess(stacked.value) == pytest.approx(sum(overrides[field]) - 1.0)


def test_stack_broadcasts_its_fields_to_one_read_only_shape():
    shares = np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]])
    stack = AllocationState(**{**FEASIBLE_TWO_USERS, "uplink_offload": shares})
    assert stack.n_users == 2
    for name in AllocationState._FIELDS:
        field = getattr(stack, name)
        assert field.shape == (3, 2)
        assert not field.flags.writeable
    assert np.array_equal(stack.uplink_offload, shares)
    assert np.array_equal(stack.delta, [[0.5, 0.5]] * 3)


@pytest.mark.parametrize("overrides", [
    dict(gamma=np.full((3, 3), 0.5)),          # last axis 3 against 2 users
    dict(delta=np.full((3, 1), 0.5)),          # sets n = 1; the others have 2
    dict(uplink_weight=np.full((4, 2), 0.3), lambda_local=np.full((3, 2), 0.5)),
])
def test_stack_with_mismatched_axes_rejected(overrides):
    with pytest.raises(ValidationError):
        AllocationState(**{**FEASIBLE_TWO_USERS, **overrides})


# --------------------------------------------------------------------------
# a Population stack: instances along the leading axes, users along the last
# --------------------------------------------------------------------------

GOOD_TWO_USERS = dict(transmit_power=[0.2, 0.3], channel_gain=[1e-6, 2e-6],
                      cpu_hz=[1e9, 2e9], energy_budget=[1.0, 2.0], dataset_size=[10, 20])

POPULATION_PRECEDENCE_CASES = [
    # the first field in field order wins, whatever the user index
    (dict(cpu_hz=[1e9, 0.0], channel_gain=[1e-6, -1.0]), "channel_gain", 1),
    (dict(energy_budget=[float("nan"), 1.0], transmit_power=[0.2, float("inf")]),
     "transmit_power", 1),
    (dict(dataset_size=[10, 2.5], energy_budget=[1.0, 0.0]), "energy_budget", 1),
    # within one field the lowest user index wins
    (dict(cpu_hz=[-1.0, 0.0]), "cpu_hz", 0),
    (dict(dataset_size=[0, 2.5]), "dataset_size", 0),
]


def _population(**overrides):
    return Population(**{**GOOD_TWO_USERS, **overrides})


@pytest.mark.parametrize("overrides, field, index", POPULATION_PRECEDENCE_CASES)
def test_bad_instance_in_a_population_stack_raises_as_in_one_d(overrides, field, index):
    # instances 0 and 2 are valid, instance 1 carries the bad values
    stack = {name: np.array([value, overrides.get(name, value), value])
             for name, value in GOOD_TWO_USERS.items()}
    with pytest.raises(ValidationError) as one_d:
        _population(**overrides)
    with pytest.raises(ValidationError) as stacked:
        Population(**stack)
    assert type(stacked.value) is type(one_d.value) is ValidationError
    assert str(one_d.value).startswith(f"Population: {field}[{index}] must be ")
    assert str(stacked.value) == str(one_d.value).replace(f"[{index}]", f"[1, {index}]", 1)


def test_population_stack_names_the_first_instance_then_the_lowest_user():
    # cpu_hz is bad in instance 2 (user 0) and instance 1 (user 1): instance 1 wins;
    # an earlier field in a later instance still beats both
    cpu = np.full((3, 2), 1e9)
    cpu[2, 0] = cpu[1, 1] = 0.0
    stack = {name: np.broadcast_to(value, (3, 2)) for name, value in GOOD_TWO_USERS.items()}
    with pytest.raises(ValidationError, match=r"cpu_hz\[1, 1\] must be finite and > 0"):
        Population(**{**stack, "cpu_hz": cpu})
    gain = np.full((3, 2), 1e-6)
    gain[2, 1] = -1.0
    with pytest.raises(ValidationError, match=r"channel_gain\[2, 1\] must be finite and > 0"):
        Population(**{**stack, "cpu_hz": cpu, "channel_gain": gain})


def test_population_stack_keeps_its_shape_read_only():
    stack = Population(**{name: np.broadcast_to(value, (4, 3, 2))
                          for name, value in GOOD_TWO_USERS.items()})
    assert stack.n_users == 2
    for name in Population._FIELDS:
        field = getattr(stack, name)
        assert field.shape == (4, 3, 2)
        assert not field.flags.writeable
    assert stack.dataset_size.dtype == np.int64
    assert np.array_equal(stack.dataset_size[2, 1], [10, 20])


@pytest.mark.parametrize("overrides", [
    dict(cpu_hz=np.full((3, 2), 1e9)),                  # a stack among 1-d fields: no broadcast
    dict(dataset_size=[[10, 20, 30]]),                   # last axis 3 against 2 users
    {name: np.broadcast_to(value, (3, 2)) for name, value in GOOD_TWO_USERS.items()}
    | dict(energy_budget=np.ones((4, 2))),               # instance axes of two lengths
    {name: np.ones((3, 0)) for name in GOOD_TWO_USERS},   # instances without users
])
def test_population_stack_with_mismatched_shapes_rejected(overrides):
    with pytest.raises(ValidationError, match="all fields of one shape"):
        _population(**overrides)
