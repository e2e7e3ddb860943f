import numpy as np
import pytest

from dkpc.behavior import (
    LtiSystem,
    Trajectory,
    assemble,
    hankel,
    is_persistently_exciting,
    random_stable_lti,
    trajectory_from_csv,
    trajectory_to_csv,
    verify_fundamental_lemma,
)
from dkpc import behavior
from dkpc.lifting import IdentityBank, build_bank

from oracles import pe_rank_svd


# -- hankel -------------------------------------------------------------------


def test_hankel_scalar_definition():
    h = hankel(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
    assert np.array_equal(h, [[1, 2, 3, 4], [2, 3, 4, 5]])


def test_hankel_constant_sequence_rank_one():
    h = hankel(np.full(8, 3.0), 3)
    assert np.linalg.matrix_rank(h) == 1


def test_hankel_full_depth_single_column():
    seq = np.arange(6.0).reshape(3, 2)
    h = hankel(seq, 3)
    assert h.shape == (6, 1)
    assert np.array_equal(h[:, 0], seq.ravel())


def test_hankel_depth_exceeds_length():
    with pytest.raises(ValueError):
        hankel(np.zeros((3, 1)), 4)


def test_hankel_sample_major_rows():
    seq = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    h = hankel(seq, 2)
    # column 0 stacks step 0 then step 1, channels adjacent
    assert np.array_equal(h[:, 0], [1, 10, 2, 20])


def test_hankel_shift_structure():
    rng = np.random.default_rng(0)
    seq = rng.normal(size=(20, 3))
    h = hankel(seq, 4)
    d = 3
    # column j+1 is column j shifted up one sample with a fresh last block
    for j in range(h.shape[1] - 1):
        assert np.array_equal(h[: -d, j + 1], h[d:, j])


# -- persistency of excitation -------------------------------------------------


def test_pe_random_inputs_accepted():
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, size=(300, 2))
    report = is_persistently_exciting(u, 10)
    assert report
    assert report.rank == report.required_rank == 20
    # independent rank check
    assert np.linalg.matrix_rank(hankel(u, 10)) == 20


def test_pe_full_scale_order(plant_dataset):
    # order n_basis + L on the production-size data layout
    report = is_persistently_exciting(plant_dataset.u[:, :], 15)
    assert report and report.rank == 150


def test_pe_constant_sequence_rejected():
    report = is_persistently_exciting(np.full((50, 1), 2.0), 2)
    assert not report
    assert report.rank == 1


def test_pe_zero_sequence_rejected():
    assert not is_persistently_exciting(np.zeros((50, 1)), 2)


def test_pe_short_data_reports_reason():
    report = is_persistently_exciting(np.random.default_rng(0).normal(size=(20, 3)), 10)
    assert not report
    assert "short" in report.reason


def _pe_cases():
    """Input sequences whose Hankel conditioning runs from 1 to beyond 1e16."""
    rng = np.random.default_rng(11)
    base = rng.uniform(-1.0, 1.0, size=(240, 3))
    noise = rng.standard_normal(240)
    cases = {"random": (base, 8), "single_row": (base[:, :1], 1), "wide": (base[:, :2], 40)}
    for s in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12, 1e-16):
        scaled = base.copy()
        scaled[:, 2] *= s
        cases[f"scaled_{s:g}"] = (scaled, 8)
    for e in (1e-3, 1e-6, 1e-10, 1e-14):
        near = base.copy()
        near[:, 2] = near[:, 1] + e * noise
        cases[f"near_duplicate_{e:g}"] = (near, 8)
    dup = base.copy()
    dup[:, 2] = dup[:, 1]
    cases["duplicate"] = (dup, 8)
    # a spike among the first or last ``order`` samples: the lag sums add
    # and later subtract its square, so the head and tail pairs cancel
    for name, at in (("spike_head", [2]), ("spike_tail", [-3]), ("spike_ends", [2, -3])):
        spiked = base.copy()
        spiked[at, 0] = 1e8
        cases[name] = (spiked, 8)
    cases["tiny"] = (1e-160 * base, 8)
    cases["constant"] = (np.full((60, 1), 2.0), 2)
    cases["zero"] = (np.zeros((60, 2)), 3)
    cases["short"] = (base[:20], 10)
    return cases


PE_CASES = _pe_cases()


@pytest.mark.parametrize("name", sorted(PE_CASES))
def test_pe_report_matches_svd_reference(name):
    u, order = PE_CASES[name]
    eps = np.finfo(float).eps
    for rtol in (None, 1e-12, 1e-3, 0.5):
        report = is_persistently_exciting(u, order, rtol=rtol)
        ref = pe_rank_svd(u, order, rtol=rtol)
        got = (report.is_pe, report.rank, report.required_rank, report.n_cols, report.reason)
        want = (ref["is_pe"], ref["rank"], ref["required_rank"], ref["n_cols"], ref["reason"])
        assert got == want, (name, rtol)
        sv = ref["sv"]
        if sv is None:
            assert report.decided_by == behavior.PE_LENGTH
            continue
        # the certificate runs exactly when lambda_min(G) clears the shift
        # (c^2 + delta) * trace(G) well; near the shift either path may decide
        rows, cols = ref["required_rank"], ref["n_cols"]
        c = max(rows, cols) * eps if rtol is None else rtol
        bound = (cols + 2 * order) * (3.0 + 2.0 * np.log(order)) + rows + 2
        shift = c * c + behavior._PE_SAFETY * bound * eps
        trace = float(np.sum(sv**2))
        rho = sv[-1] ** 2 / trace if trace > 0.0 else 0.0
        normal = trace >= (rows + cols + 2 * order) ** 2 * np.finfo(float).tiny / eps
        if normal and rho >= 2.0 * shift and shift * rows < 1.0:
            assert report.decided_by == behavior.PE_CHOLESKY, (name, rtol)
        elif not normal or rho <= c * c + 0.5 * (shift - c * c) or shift * rows >= 1.0:
            assert report.decided_by == behavior.PE_SVD, (name, rtol)


def test_pe_paths_cover_both_deciders():
    paths = {
        (name, rtol): is_persistently_exciting(u, order, rtol=rtol).decided_by
        for name, (u, order) in PE_CASES.items()
        for rtol in (None, 1e-3)
    }
    assert paths[("random", None)] == paths[("scaled_0.01", 1e-3)] == behavior.PE_CHOLESKY
    assert paths[("tiny", None)] == paths[("near_duplicate_1e-10", None)] == behavior.PE_SVD
    assert paths[("duplicate", None)] == paths[("zero", None)] == behavior.PE_SVD


def _gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _lag_gram_cases():
    rng = np.random.default_rng(23)
    cases = {
        "random": (rng.uniform(-1.0, 1.0, size=(200, 3)), 7),
        "single_channel": (rng.standard_normal((120, 1)), 9),
        "order_one": (rng.standard_normal((50, 4)), 1),
        # n_cols = T - order + 1 equals the required rank n_u * order = 18
        "shortest": (rng.standard_normal((3 * 6 + 6 - 1, 3)), 6),
        "grid_30_bus": (rng.uniform(-1.0, 1.0, size=(4000, 30)), 95),
    }
    spiked = rng.uniform(-1.0, 1.0, size=(240, 3))
    spiked[[2, -3], 0] = 1e8  # squares added in the first block row, cancelled further down
    cases["spike_ends"] = (spiked, 8)
    return cases


LAG_GRAM_CASES = _lag_gram_cases()


@pytest.mark.parametrize("name", sorted(LAG_GRAM_CASES))
def test_lag_gram_matches_hankel_product(name):
    u, order = LAG_GRAM_CASES[name]
    n_u = u.shape[1]
    h = hankel(u, order)
    cols = h.shape[1]
    ref = h @ h.T
    del h
    t = float(np.trace(ref))
    g = behavior._lag_gram(u, order)
    upper = np.kron(np.triu(np.ones((order, order), bool)), np.ones((n_u, n_u), bool))
    assert not g[~upper].any(), "blocks below the diagonal stay zero"
    np.subtract(g, ref, out=ref)
    ref[~upper] = 0.0
    # mirrored, the upper part's error counts twice; the GEMM reference has its own gamma_n t
    err = np.sqrt(2.0) * np.linalg.norm(ref)
    bound = (_gamma(cols + 2 * order) * (3.0 + 2.0 * np.log(order)) + _gamma(cols)) * t
    assert err <= bound, (name, err / t)


def test_pe_certificate_builds_no_hankel(monkeypatch):
    calls = []
    real = behavior.hankel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(behavior, "hankel", counted)
    u = np.random.default_rng(2).uniform(-1.0, 1.0, size=(1000, 10))
    report = is_persistently_exciting(u, 55)
    assert report.decided_by == behavior.PE_CHOLESKY and report.rank == 550
    assert calls == []
    # the SVD fallback still decides from the Hankel itself
    report = is_persistently_exciting(np.zeros((60, 2)), 3)
    assert report.decided_by == behavior.PE_SVD and len(calls) == 1


def test_pe_rejects_order_below_one():
    for order in (0, -2):
        with pytest.raises(ValueError, match="order must be >= 1"):
            is_persistently_exciting(np.ones((10, 2)), order)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pe_rejects_non_finite_input(bad):
    u = np.random.default_rng(3).uniform(-1.0, 1.0, size=(80, 2))
    u[17, 1] = bad
    u[40, 0] = bad
    with pytest.raises(ValueError, match="non-finite input at step 17"):
        is_persistently_exciting(u, 4)
    with pytest.raises(ValueError, match="non-finite input at step 17"):
        is_persistently_exciting(u[:, 1], 4)


# -- LTI simulator and the fundamental lemma -----------------------------------


def test_lti_simulate_shapes(small_lti):
    traj = small_lti.simulate(np.zeros((5, 2)))
    assert traj.length == 5 and traj.n_y == 2


def test_fundamental_lemma_exact_data(small_lti):
    residual = verify_fundamental_lemma(small_lti, t_len=200, depth=10, seed=0)
    assert residual <= 1e-8


def test_fundamental_lemma_many_systems():
    rng = np.random.default_rng(42)
    for k in range(5):
        sys = random_stable_lti(rng, int(rng.integers(3, 6)), 2, 2)
        assert verify_fundamental_lemma(sys, 200, 10, seed=k) <= 1e-8


def test_fundamental_lemma_foreign_trajectory_rejected(small_lti):
    rng = np.random.default_rng(7)
    other = random_stable_lti(rng, 4, 2, 2)
    query = other.simulate(rng.uniform(-1, 1, size=(10, 2)), x0=rng.standard_normal(4))
    residual = verify_fundamental_lemma(small_lti, 200, 10, seed=0, query=query)
    assert residual > 1e-6


def test_fundamental_lemma_zero_trajectory(small_lti):
    query = Trajectory(u=np.zeros((10, 2)), y=np.zeros((10, 2)))
    residual = verify_fundamental_lemma(small_lti, 200, 10, seed=0, query=query)
    assert residual <= 1e-12


def test_fundamental_lemma_rejects_rank_deficient_data():
    sys = LtiSystem(a=[[0.5]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(ValueError, match="persistently exciting"):
        # depth + states larger than the data can support
        verify_fundamental_lemma(sys, t_len=12, depth=10, seed=0)


# -- assemble -------------------------------------------------------------------


def test_assemble_shapes(plant_dataset):
    bank = build_bank(plant_dataset.y, 40, seed=2)
    with pytest.warns(UserWarning, match="persistently exciting"):  # too short for order 55
        hs = assemble(plant_dataset, bank, t_ini=5, horizon=10)
    t_len = plant_dataset.length
    assert hs.n_cols == t_len - 15 + 1
    assert hs.z.shape == (40 * 5, hs.n_cols)  # past block-rows only
    assert hs.u.shape == (10 * 15, hs.n_cols)
    assert hs.y.shape == (10 * 15, hs.n_cols)


def test_hankel_system_gram_is_the_row_stack_product(plant_dataset):
    # each formed once and kept read-only; the lifted Gram copies the one
    # without Z exactly, and each equals the product of its own stack to rounding
    bank = build_bank(plant_dataset.y, 20, seed=2)
    hs = assemble(plant_dataset, bank, t_ini=4, horizon=6)
    for lifted, past in ((True, [hs.u_past, hs.y_past, hs.z]), (False, [hs.u_past, hs.y_past])):
        s = np.vstack([*past, hs.u_future, hs.y_future])
        ref = s @ s.T
        g = hs.gram(lifted)
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref)), lifted
    z_rows = np.arange(hs.z.shape[0]) + (hs.n_u + hs.n_y) * hs.t_ini
    plain = np.delete(np.delete(hs.gram(True), z_rows, 0), z_rows, 1)
    assert np.array_equal(plain, hs.gram(False))
    for lifted in (True, False):
        assert hs.gram(lifted) is hs.gram(lifted) and not hs.gram(lifted).flags.writeable


def test_assemble_full_scale_arithmetic():
    # shape rule:  T = 1000, T_ini = 5, N = 10 -> 986 columns
    rng = np.random.default_rng(0)
    data = Trajectory(u=rng.normal(size=(1000, 10)), y=rng.normal(size=(1000, 10)))
    bank = build_bank(data.y, 40, seed=0)
    hs = assemble(data, bank, 5, 10)
    assert hs.n_cols == 986
    assert hs.z.shape == (200, 986)
    assert hs.u.shape == (150, 986)


def test_assemble_partition_consistency(lti_dataset):
    bank = IdentityBank(2)
    hs = assemble(lti_dataset, bank, t_ini=4, horizon=8)
    assert np.array_equal(np.vstack([hs.u_past, hs.u_future]), hs.u)
    assert np.array_equal(np.vstack([hs.y_past, hs.y_future]), hs.y)
    assert np.array_equal(hs.z, hankel(lti_dataset.y, 12)[: 2 * 4])
    assert hs.u_past.shape == (8, hs.n_cols)
    assert hs.u_future.shape == (16, hs.n_cols)


def test_assemble_single_column():
    data = Trajectory(u=np.arange(6.0).reshape(3, 2), y=np.arange(6.0).reshape(3, 2))
    with pytest.warns(UserWarning, match="persistently exciting"):  # one column
        hs = assemble(data, IdentityBank(2), t_ini=1, horizon=2)
    assert hs.n_cols == 1


def test_assemble_insufficient_data():
    data = Trajectory(u=np.zeros((4, 1)), y=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        assemble(data, IdentityBank(1), t_ini=3, horizon=3)


def test_assemble_warns_on_pe_failure():
    data = Trajectory(u=np.zeros((50, 1)), y=np.zeros((50, 1)))
    with pytest.warns(UserWarning, match="persistently exciting"):
        hs = assemble(data, IdentityBank(1), t_ini=2, horizon=3)
    assert hs.pe_report is not None and not hs.pe_report


def test_assemble_stores_pe_report(lti_dataset):
    hs = assemble(lti_dataset, IdentityBank(2), t_ini=4, horizon=8)
    assert hs.pe_report is not None and hs.pe_report.is_pe


# -- trajectory container and CSV ----------------------------------------------


def test_trajectory_validates_lengths():
    with pytest.raises(ValueError):
        Trajectory(u=np.zeros((3, 1)), y=np.zeros((4, 1)))


def test_trajectory_csv_round_trip(tmp_path, lti_dataset):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(lti_dataset, path, comment="config_hash=deadbeef")
    back = trajectory_from_csv(path)
    assert np.array_equal(back.u, lti_dataset.u)
    assert np.array_equal(back.y, lti_dataset.y)
    assert back.dt == lti_dataset.dt
    assert path.read_text().startswith("# config_hash=deadbeef")
