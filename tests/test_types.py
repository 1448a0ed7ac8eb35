import numpy as np
import pytest

from mecfl.errors import OutOfRange, SumExceedsOne, ValidationError
from mecfl.types import (
    AllocationState,
    ModelState,
    RoundMetrics,
    SystemConfig,
    UserProfile,
    project_unit_interval,
    validate_allocation,
)

from helpers import make_alloc


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
        UserProfile(id=0, transmit_power=0.0, channel_gain=1e-6, cpu_hz=1e9,
                    energy_budget=1.0, dataset_size=10)
    with pytest.raises(ValidationError):
        UserProfile(id=0, transmit_power=0.2, channel_gain=1e-6, cpu_hz=1e9,
                    energy_budget=1.0, dataset_size=0)


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


@pytest.mark.parametrize("overrides, error, field, index", [
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
])
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
