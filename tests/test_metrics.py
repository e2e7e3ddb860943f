import numpy as np
import pytest

from dkpc.metrics import (
    DEEPC,
    DKPC,
    RunMetrics,
    best_per_alpha,
    control_effort,
    itae,
    mixed_index,
    pareto_frontier,
    read_sweep_csv,
    write_sweep_csv,
)

from oracles import dominance_filter


def rm(eps, ju, kind=DKPC, tag=(1.0, 1.0, 1.0)):
    return RunMetrics(epsilon=eps, j_u=ju, config_tag=tag, controller_kind=kind)


# -- itae ---------------------------------------------------------------------


def test_itae_zero_error():
    assert itae(np.zeros((5, 3)), 0.01) == 0.0


def test_itae_scalar_example():
    # e = (1, 1), dt = 0.01 -> t = (0.01, 0.02) -> 0.03
    assert np.isclose(itae(np.array([[1.0], [1.0]]), 0.01), 0.03)


def test_itae_second_sample_weighted():
    assert np.isclose(itae(np.array([[0.0], [2.0]]), 0.01), 0.04)


def test_itae_multichannel_sum_abs():
    # channels reduce by the sum of absolute errors
    e = np.array([[1.0, -1.0]])
    assert np.isclose(itae(e, 1.0), 2.0)


def test_itae_linear_in_error_scale():
    rng = np.random.default_rng(0)
    e = rng.normal(size=(30, 4))
    base = itae(e, 0.01)
    assert np.isclose(itae(3.0 * e, 0.01), 3.0 * base)
    assert base >= 0.0


def test_itae_empty_rejected():
    with pytest.raises(ValueError):
        itae(np.zeros((0, 2)), 0.01)


# -- control effort --------------------------------------------------------------


def test_effort_zero():
    assert control_effort(np.zeros((4, 2))) == 0.0


def test_effort_three_four_five():
    us = np.array([[3.0, 4.0], [3.0, 4.0]])
    assert np.isclose(control_effort(us), 10.0)


def test_effort_single_unit_vector():
    u = np.zeros((1, 10))
    u[0, 0] = 1.0
    assert np.isclose(control_effort(u), 1.0)


def test_effort_concatenation_additive():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(5, 3))
    assert np.isclose(
        control_effort(np.vstack([a, b])), control_effort(a) + control_effort(b)
    )


# -- mixed index ------------------------------------------------------------------


def test_mixed_index_alpha_endpoints():
    pts = [rm(0.0, 5.0), rm(2.0, 3.0), rm(4.0, 1.0)]
    by_eps = mixed_index(pts, 1.0)
    assert np.argmin(by_eps) == 0
    by_ju = mixed_index(pts, 0.0)
    assert np.argmin(by_ju) == 2
    # order preservation: argmin of S_1 equals argmin of raw epsilon
    assert np.argmin(by_eps) == np.argmin([p.epsilon for p in pts])


def test_mixed_index_symmetry():
    pts = [rm(0.0, 1.0), rm(1.0, 0.0)]
    s = mixed_index(pts, 0.5)
    assert np.allclose(s, [0.5, 0.5])


def test_mixed_index_degenerate_axis_is_zero():
    pts = [rm(3.0, 1.0), rm(3.0, 2.0)]
    s = mixed_index(pts, 1.0)
    assert np.allclose(s, 0.0)


def test_mixed_index_validation():
    with pytest.raises(ValueError):
        mixed_index([], 0.5)
    with pytest.raises(ValueError):
        mixed_index([rm(1.0, 1.0)], 1.5)


# -- pareto frontier ----------------------------------------------------------------


def test_frontier_strict_dominance():
    pts = [rm(1.0, 1.0), rm(2.0, 2.0)]
    front = pareto_frontier(pts)
    assert len(front) == 1
    assert front[0].epsilon == 1.0


def test_frontier_incomparable_pair_kept():
    pts = [rm(1.0, 2.0), rm(2.0, 1.0)]
    front = pareto_frontier(pts)
    assert len(front) == 2
    assert front[0].j_u <= front[1].j_u  # sorted by effort


def test_frontier_duplicates_kept():
    pts = [rm(1.0, 1.0), rm(1.0, 1.0)]
    assert len(pareto_frontier(pts)) == 2


def test_frontier_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pts = [rm(float(e), float(j)) for e, j in rng.random((n, 2))]
        ours = sorted((f.epsilon, f.j_u) for f in pareto_frontier(pts))
        ref = sorted(dominance_filter([(p.epsilon, p.j_u) for p in pts]))
        assert ours == ref


def test_frontier_idempotent():
    rng = np.random.default_rng(3)
    pts = [rm(float(e), float(j)) for e, j in rng.random((50, 2))]
    once = pareto_frontier(pts)
    again = pareto_frontier(
        [rm(f.epsilon, f.j_u, tag=f.config_tag) for f in once]
    )
    assert [(f.epsilon, f.j_u) for f in once] == [(f.epsilon, f.j_u) for f in again]


# -- best per alpha ------------------------------------------------------------------


def test_best_per_alpha_identical_sets():
    pts_a = [rm(1.0, 3.0, DKPC), rm(2.0, 2.0, DKPC), rm(3.0, 1.0, DKPC)]
    pts_b = [rm(1.0, 3.0, DEEPC), rm(2.0, 2.0, DEEPC), rm(3.0, 1.0, DEEPC)]
    rows = best_per_alpha(pts_a, pts_b, [0.0, 0.5, 1.0])
    for row in rows:
        assert np.isclose(row.dkpc_index, row.deepc_index)


def test_best_per_alpha_row_count_and_singletons():
    rows = best_per_alpha([rm(1.0, 1.0)], [rm(2.0, 2.0, DEEPC)], np.linspace(0, 1, 11))
    assert len(rows) == 11
    for row in rows:
        assert row.dkpc_tag == (1.0, 1.0, 1.0)
        assert row.winner == DKPC  # dominates on both axes


def test_best_per_alpha_requires_both_sets():
    with pytest.raises(ValueError):
        best_per_alpha([], [rm(1.0, 1.0, DEEPC)], [0.5])


# -- CSV round trip -------------------------------------------------------------------


def test_sweep_csv_round_trip(tmp_path):
    rows = [
        (rm(1.5, 2.5, DKPC, (300.0, 0.01, 500.0)), "ok"),
        (rm(0.5, 4.5, DEEPC, (10.0, 1.0, 1.0, 1e5)), "ok"),
        (RunMetrics(float("nan"), float("nan"), (10.0, 1.0, 1.0), DKPC), "error:Divergence"),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path, comment="config_hash=f00")
    back = read_sweep_csv(path)
    assert len(back) == 3
    assert back[0][0].epsilon == 1.5 and back[0][1] == "ok"
    assert back[1][0].config_tag == (10.0, 1.0, 1.0, 1e5)
    assert np.isnan(back[2][0].epsilon) and back[2][1].startswith("error")
    assert path.read_text().startswith("# config_hash=f00")


def test_sweep_csv_malformed_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("controller,q,r,lambda_g,lambda_sigma,epsilon,j_u,status\nDKPC,oops,1,1,,1,1,ok\n")
    with pytest.raises(ValueError, match="row 2"):
        read_sweep_csv(path)
    # a file whose one line is a row, not the header, has no columns to read
    path.write_text("DKPC,oops,1,1,,1,1,ok\n")
    with pytest.raises(ValueError, match="has no column controller, q, r"):
        read_sweep_csv(path)


def test_run_metrics_validation():
    with pytest.raises(ValueError):
        RunMetrics(epsilon=-1.0, j_u=0.0, config_tag=(1.0,), controller_kind=DKPC)
