import json

import numpy as np
import pytest

from dkpc.lifting import (
    IdentityBank,
    RbfBank,
    build_bank,
    load_bank,
    save_bank,
)


def unit_center_bank(n_y=3):
    centers = np.zeros((2, n_y))
    centers[1, 0] = 2.0
    return RbfBank(centers=centers, seed=0)


def test_build_bank_shapes():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(200, 10))
    bank = build_bank(data, 40, seed=1)
    assert bank.centers.shape == (40, 10)
    assert bank.n_basis == 40 and bank.n_y == 10


def test_build_bank_centers_inside_bounding_box():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(50, 4))
    bank = build_bank(data, 25, seed=3)
    assert np.all(bank.centers >= data.min(axis=0) - 1e-12)
    assert np.all(bank.centers <= data.max(axis=0) + 1e-12)


def test_build_bank_degenerate_data_collapses():
    data = np.tile([0.5, -1.0], (7, 1))
    bank = build_bank(data, 5, seed=0)
    assert np.allclose(bank.centers, [0.5, -1.0])


def test_build_bank_deterministic():
    data = np.random.default_rng(4).normal(size=(30, 2))
    a = build_bank(data, 8, seed=11)
    b = build_bank(data, 8, seed=11)
    assert np.array_equal(a.centers, b.centers)


def test_build_bank_rejects_bad_args():
    with pytest.raises(ValueError):
        build_bank(np.zeros((0, 2)), 4, seed=0)
    with pytest.raises(ValueError):
        build_bank(np.zeros((5, 2)), 0, seed=0)


def test_lift_at_center_is_zero():
    bank = unit_center_bank()
    z = bank.lift(np.zeros(3))
    assert z[0] == 0.0


def test_lift_unit_distance_is_zero():
    # log10(1) = 0
    bank = unit_center_bank()
    z = bank.lift(np.array([1.0, 0.0, 0.0]))
    assert np.isclose(z[0], 0.0)


def test_lift_distance_ten_is_hundred():
    bank = RbfBank(centers=np.zeros((1, 1)), seed=0)
    z = bank.lift(np.array([10.0]))
    assert np.isclose(z[0], 100.0)


def test_lift_vanishes_continuously_at_center():
    bank = RbfBank(centers=np.zeros((1, 1)), seed=0)
    vals = [abs(bank.lift(np.array([r]))[0]) for r in (1e-3, 1e-6, 1e-9)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-16


def test_lift_sign_structure():
    bank = RbfBank(centers=np.zeros((1, 1)), seed=0)
    for r in (0.01, 0.3, 0.999):
        assert bank.lift(np.array([r]))[0] < 0.0
    for r in (1.001, 5.0, 42.0):
        assert bank.lift(np.array([r]))[0] > 0.0


def test_lift_rejects_nonfinite():
    bank = unit_center_bank()
    with pytest.raises(ValueError):
        bank.lift(np.array([np.nan, 0.0, 0.0]))


def test_lift_trajectory_empty():
    bank = unit_center_bank()
    out = bank.lift_trajectory(np.zeros((0, 3)))
    assert out.shape == (0, 2)


def test_lift_trajectory_shape_and_consistency():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(1000, 10))
    bank = build_bank(data, 40, seed=2)
    z = bank.lift_trajectory(data)
    assert z.shape == (1000, 40)
    for k in (0, 500, 999):
        assert np.allclose(z[k], bank.lift(data[k]), atol=1e-12)


def test_lift_trajectory_constant_sequence():
    bank = unit_center_bank()
    ys = np.tile([0.5, 0.5, 0.0], (6, 1))
    z = bank.lift_trajectory(ys)
    assert np.allclose(z, z[0])


def test_lift_trajectory_reports_bad_index():
    bank = unit_center_bank()
    ys = np.zeros((4, 3))
    ys[2, 1] = np.inf
    with pytest.raises(ValueError, match="step 2"):
        bank.lift_trajectory(ys)


def test_bank_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    bank = build_bank(rng.normal(size=(40, 6)), 13, seed=21)
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    back = load_bank(path)
    assert back.seed == bank.seed
    assert np.array_equal(back.centers, bank.centers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bank_rejects_non_finite_centers(tmp_path, bad):
    # a NaN distance would otherwise lift to a silent 0
    with pytest.raises(ValueError, match="non-finite bank center 0"):
        RbfBank(centers=[[bad, 0.0]])
    centers = [[0.0, 1.0], [2.0, 3.0], [4.0, bad]]
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"seed": 3, "n_basis": 3, "n_y": 2, "centers": centers}))
    with pytest.raises(ValueError, match="non-finite bank center 2"):
        load_bank(path)


def test_identity_bank_passthrough():
    bank = IdentityBank(4)
    y = np.array([1.0, -2.0, 0.0, 3.5])
    assert np.array_equal(bank.lift(y), y)
    ys = np.tile(y, (5, 1))
    assert np.array_equal(bank.lift_trajectory(ys), ys)
    assert bank.n_basis == 4
