from dataclasses import replace

import numpy as np
import pytest

from mecfl.errors import OutOfRange, SumExceedsOne, ValidationError
from mecfl.types import (
    AllocationState,
    ModelState,
    RoundMetrics,
    SystemConfig,
    project_unit_interval,
    validate_allocation,
)

from helpers import make_alloc, make_pop


def test_project_clamps_above():
    assert project_unit_interval(1.7) == 1.0


def test_project_clamps_below():
    assert project_unit_interval(-0.3) == 0.0


def test_project_interior_fixed_point():
    assert project_unit_interval(0.42) == 0.42


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_project_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        project_unit_interval(bad)


def test_project_idempotent():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1e6, 1e6, 200):
        once = project_unit_interval(x)
        assert project_unit_interval(once) == once


def test_validate_allocation_accepts_feasible_point():
    alloc = AllocationState(
        delta=[0.5, 0.5], gamma=[0.5, 0.5],
        uplink_offload=[0.5, 0.5], uplink_weight=[0.3, 0.3],
        lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5],
    )
    assert validate_allocation(alloc, 2) is alloc


def test_offload_simplex_violation():
    with pytest.raises(SumExceedsOne) as excinfo:
        AllocationState(
            delta=[0.5, 0.5], gamma=[0.5, 0.5],
            uplink_offload=[0.7, 0.7], uplink_weight=[0.3, 0.3],
            lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5],
        )
    assert excinfo.value.simplex == "uplink_offload"
    assert excinfo.value.excess == pytest.approx(0.4)


def test_delta_out_of_range():
    with pytest.raises(OutOfRange) as excinfo:
        AllocationState(
            delta=[1.2, 0.0], gamma=[0.5, 0.5],
            uplink_offload=[0.5, 0.5], uplink_weight=[0.3, 0.3],
            lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5],
        )
    assert excinfo.value.index == 0
    assert excinfo.value.field == "delta"


def test_negative_multiplier_rejected():
    with pytest.raises(OutOfRange):
        make_alloc(2, lam_offload=[-0.1, 0.5])


def test_validate_allocation_length_mismatch():
    alloc = make_alloc(2)
    with pytest.raises(ValidationError):
        validate_allocation(alloc, 3)


def test_allocation_arrays_are_read_only():
    alloc = make_alloc(3)
    with pytest.raises(ValueError):
        alloc.delta[0] = 0.9


def test_uniform_constructor_is_feasible():
    alloc = AllocationState.uniform(7)
    assert alloc.n_users == 7
    assert alloc.uplink_offload.sum() == pytest.approx(1.0)
    assert np.all(alloc.lambda_offload == 0.5)


def test_system_config_rejects_nonpositive_constants():
    with pytest.raises(ValidationError):
        SystemConfig(bandwidth_hz=0.0)
    with pytest.raises(ValidationError):
        SystemConfig(noise_power=-1e-9)
    with pytest.raises(ValidationError):
        SystemConfig(convergence_tol=0.0)
    with pytest.raises(ValidationError):
        SystemConfig(batch_size=0)


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


def test_round_metrics_rejects_negative_time():
    with pytest.raises(ValidationError):
        RoundMetrics(t_local=[-1.0], t_edge=0.0, t_total=0.0, e_total=[0.0],
                     train_loss=0.0, test_loss=0.0, weighted_score=0.0)


FEASIBLE_TWO_USERS = dict(delta=[0.5, 0.5], gamma=[0.5, 0.5],
                          uplink_offload=[0.5, 0.5], uplink_weight=[0.3, 0.3],
                          lambda_offload=[0.5, 0.5], lambda_local=[0.5, 0.5])


PRECEDENCE_CASES = [
    # non-finite beats an out-of-range entry in an earlier field
    (dict(delta=[1.5, 0.5], lambda_local=[0.5, float("nan")]),
     ValidationError, "lambda_local", 1),
    # out of range beats an oversized share sum
    (dict(gamma=[0.5, -0.2], uplink_offload=[0.8, 0.8]), OutOfRange, "gamma", 1),
    # the first field in field order wins, whatever the user index
    (dict(delta=[0.5, 1.2], gamma=[-0.5, 0.5]), OutOfRange, "delta", 1),
    (dict(uplink_weight=[0.3, 1.5], lambda_offload=[-1.0, 0.5]),
     OutOfRange, "uplink_weight", 1),
    # within one field the lowest user index wins
    (dict(gamma=[2.0, 3.0]), OutOfRange, "gamma", 0),
    # both share sums too large: the offload simplex is reported
    (dict(uplink_offload=[0.6, 0.6], uplink_weight=[0.9, 0.9]),
     SumExceedsOne, "uplink_offload", None),
]


@pytest.mark.parametrize("overrides, error, field, index", PRECEDENCE_CASES)
def test_validation_precedence_when_violations_co_occur(overrides, error, field, index):
    with pytest.raises(ValidationError) as excinfo:
        AllocationState(**{**FEASIBLE_TWO_USERS, **overrides})
    assert type(excinfo.value) is error
    if error is OutOfRange:
        assert (excinfo.value.field, excinfo.value.index) == (field, index)
    elif error is SumExceedsOne:
        assert excinfo.value.simplex == field
    else:
        assert f"{field}[{index}] is not finite" in str(excinfo.value)


@pytest.mark.parametrize("overrides, error, field, index", PRECEDENCE_CASES)
def test_bad_candidate_in_a_stack_raises_as_in_one_d(overrides, error, field, index):
    # candidates 0 and 2 are feasible, candidate 1 carries the violations
    stack = {name: np.array([value, overrides.get(name, value), value])
             for name, value in FEASIBLE_TWO_USERS.items()}
    with pytest.raises(ValidationError) as one_d:
        AllocationState(**{**FEASIBLE_TWO_USERS, **overrides})
    with pytest.raises(ValidationError) as stacked:
        AllocationState(**stack)
    assert type(stacked.value) is type(one_d.value) is error
    if error is ValidationError:
        assert f"{field}[1, {index}] is not finite" in str(stacked.value)
    else:
        assert str(stacked.value) == str(one_d.value)
        assert vars(stacked.value) == vars(one_d.value)
    if error is SumExceedsOne:
        assert stacked.value.excess == pytest.approx(sum(overrides[field]) - 1.0)


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
