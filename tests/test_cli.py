import csv
import dataclasses
import logging
import re

import numpy as np
import pytest
import yaml

from dkpc import behavior, cli, netsim
from dkpc.control import ClosedLoopTrace
from dkpc.cli import (
    ConfigError,
    ExperimentConfig,
    apply_reduced,
    cmd_gen_data,
    cmd_report,
    cmd_run,
    cmd_sweep,
    load_config,
    sweep_plan,
)
from dkpc.metrics import DEEPC, DKPC, RunMetrics, write_sweep_csv
from dkpc.qpsolve import INFEASIBLE, MAX_ITERATIONS, SOLVED

FAST_OVERRIDES = [
    "data.length=200",
    "lifting.n_basis=6",
    "controller.t_ini=2",
    "controller.horizon=5",
    "sim.sim_steps=30",
    "sim.activation_step=10",
]


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))
    return load_config(path, FAST_OVERRIDES)


def read_rows(path):
    with open(path) as fh:
        return [r for r in csv.reader(ln for ln in fh if not ln.startswith("#"))]


# -- config handling --------------------------------------------------------------


def test_config_defaults_round_trip(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    cfg = load_config(path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_explicit_values_preserved(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "output_dir": "runs",
                "controller": {"kind": "deepc", "lambda_sigma": 1e5, "q": 100.0},
                "sweep": {"q": [1.0, 2.0]},
                "sim": {"dt": 0.02, "disturbance": {"seed": 99}},
            }
        )
    )
    cfg = load_config(path)
    assert cfg.controller.kind == "deepc"
    assert cfg.controller.q == 100.0
    assert cfg.sweep.q == (1.0, 2.0)
    assert cfg.sim.dt == 0.02
    assert cfg.sim.disturbance.seed == 99
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("controler: {}\n")
    with pytest.raises(ConfigError, match="unknown top-level"):
        load_config(path)
    path.write_text("controller: {qq: 3}\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)


def test_config_kind_lambda_sigma_mismatch(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("controller: {kind: dkpc, lambda_sigma: 1.0e5}\n")
    # both controllers read the weight; the CLI sets it for deepc only
    with pytest.raises(ConfigError, match="deepc controller only; dkpc runs at the library"):
        load_config(path)
    path.write_text("controller: {kind: deepc}\n")
    with pytest.raises(ConfigError, match="requires lambda_sigma"):
        load_config(path)


def test_config_set_overrides(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    cfg = load_config(path, ["controller.q=42.5", "data.seed=9", "network=default"])
    assert cfg.controller.q == 42.5
    assert cfg.data.seed == 9


def test_config_hash_ignores_output_dir(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    cfg = load_config(path)
    assert load_config(path, ["output_dir=elsewhere"]).config_hash() == cfg.config_hash()
    assert load_config(path, ["controller.q=42.5"]).config_hash() != cfg.config_hash()


def test_output_root_env(tmp_path, monkeypatch):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: sub\n")
    cfg = load_config(path)
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert cfg.resolved_output_dir() == tmp_path / "root" / "sub"
    monkeypatch.delenv(cli.OUTPUT_ROOT_ENV)
    assert cfg.resolved_output_dir().name == "sub"


# -- gen-data -----------------------------------------------------------------------


def test_gen_data_outputs(fast_config, caplog):
    with caplog.at_level(logging.INFO, logger="dkpc"):
        paths = cmd_gen_data(fast_config)
    assert paths["dataset"].exists() and paths["bank"].exists()
    rows = read_rows(paths["dataset"])
    assert rows[0][:2] == ["k", "t"]
    assert len(rows) - 1 == 200
    pe_lines = [rec.message for rec in caplog.records if "PE check" in rec.message]
    assert len(pe_lines) == 1 and pe_lines[0].endswith("(gram-cholesky)")


def test_gen_data_deterministic(fast_config):
    a = cmd_gen_data(fast_config)["dataset"].read_bytes()
    b = cmd_gen_data(fast_config)["dataset"].read_bytes()
    assert a == b


def test_gen_data_refuses_short_data(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    cfg = load_config(path, ["data.length=10", "controller.t_ini=5", "controller.horizon=10"])
    with pytest.raises(ConfigError, match="Hankel depth"):
        cmd_gen_data(cfg)


def test_gen_data_zero_start_and_scalar_p_star(tmp_path):
    # a scalar p_star dispatches every bus alike; with zero dispatch the
    # equilibrium is the zero state, so data.start zero and equilibrium
    # write the same samples, which differ under the default dispatch
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))

    def samples(*overrides):
        cfg = load_config(path, FAST_OVERRIDES + list(overrides))
        return cmd_gen_data(cfg)["dataset"].read_text().splitlines()[1:]  # no hash line

    assert samples("plant.p_star=0", "data.start=zero") == samples("plant.p_star=0")
    assert samples("data.start=zero") != samples()
    cfg = load_config(path, ["plant.p_star=0.5"])
    assert [p.p_star for p in cli._inverter_params(cfg, 10)] == [0.5] * 10


def test_gen_data_config_hash_comment(fast_config):
    path = cmd_gen_data(fast_config)["dataset"]
    first = path.read_text().splitlines()[0]
    assert first == f"# config_hash={fast_config.config_hash()}"


# -- run ------------------------------------------------------------------------------


def test_run_writes_trace_and_metrics(fast_config):
    cmd_gen_data(fast_config)
    paths = cmd_run(fast_config)
    rows = read_rows(paths["trace"])
    assert len(rows) - 1 == 30
    assert rows[0][0] == "k" and rows[0][-1] == "iters"
    met = read_rows(paths["metrics"])
    assert met[0] == ["controller", "q", "r", "lambda_g", "lambda_sigma", "epsilon", "j_u", "status"]
    assert met[1][0] == DKPC
    assert float(met[1][5]) >= 0.0


def test_run_requires_dataset(fast_config):
    with pytest.raises(ConfigError, match="gen-data"):
        cmd_run(fast_config)


def test_run_deepc_kind(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))
    cfg = load_config(
        path,
        FAST_OVERRIDES + ["controller.kind=deepc", "controller.lambda_sigma=1.0e5"],
    )
    cmd_gen_data(cfg)
    paths = cmd_run(cfg)
    met = read_rows(paths["metrics"])
    assert met[1][0] == DEEPC
    assert float(met[1][4]) == 1e5


# -- sweep ----------------------------------------------------------------------------


def test_sweep_plan_full_counts(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    plan = sweep_plan(load_config(path))
    kinds = [kind for kind, _ in plan]
    # sweep.csv row order: every DeePC config, then every DKPC config
    assert kinds == ["deepc"] * 192 + ["dkpc"] * 64
    # DeePC runs its lambda_sigma grid; DKPC the library default weight
    assert {c.lambda_sigma for kind, c in plan if kind == "deepc"} == {1e4, 1e5, 1e6}
    assert {c.lambda_sigma for kind, c in plan if kind == "dkpc"} == {1e3}


def test_sweep_plan_reduced_counts(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    plan = sweep_plan(apply_reduced(load_config(path)))
    n_deepc = sum(kind == "deepc" for kind, _ in plan)
    assert (len(plan) - n_deepc, n_deepc) == (8, 16)


def test_sweep_singleton_grids(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))
    cfg = load_config(
        path,
        FAST_OVERRIDES
        + [
            "sweep.q=[300.0]",
            "sweep.r=[0.01]",
            "sweep.lambda_g=[500.0]",
            "sweep.lambda_sigma=[1.0e5]",
        ],
    )
    cmd_gen_data(cfg)
    rows = read_rows(cmd_sweep(cfg))
    assert len(rows) - 1 == 2  # one per controller
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {DKPC, DEEPC}
    assert all(r[-1].startswith("ok") for r in rows[1:])


def test_sweep_csv_identical_across_worker_counts(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))
    cfg = load_config(
        path,
        FAST_OVERRIDES
        + ["sweep.q=[300.0]", "sweep.r=[0.01]", "sweep.lambda_g=[500.0]",
           "sweep.lambda_sigma=[1.0e4, 1.0e5]"],
    )
    cmd_gen_data(cfg)
    serial = cmd_sweep(cfg, workers=1).read_bytes()
    assert len(read_rows(cmd_sweep(cfg, workers=2))) - 1 == 3
    assert cfg.resolved_output_dir().joinpath(cli.SWEEP_FILE).read_bytes() == serial


def test_reduced_grids_do_not_depend_on_grid_order(tmp_path):
    # --reduced keeps every other value of the sorted grid, not of the written order
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    reduced = [apply_reduced(load_config(path, [f"sweep.q={grid}"]))
               for grid in ("[10, 100, 300, 1000]", "[1000, 10, 300, 100]")]
    assert reduced[0].sweep.q == reduced[1].sweep.q == (10.0, 300.0)
    assert sweep_plan(reduced[0]) == sweep_plan(reduced[1])
    assert reduced[0].config_hash() == reduced[1].config_hash()


@pytest.mark.parametrize("grid, bad", [("q", -1.0), ("r", 0.0), ("lambda_g", np.inf),
                                       ("lambda_sigma", -1e4)])
def test_validate_checks_each_grid_value_as_the_sweep_plan_does(grid, bad):
    good = ExperimentConfig()
    sweep = dataclasses.replace(good.sweep, **{grid: getattr(good.sweep, grid) + (bad,)})
    cfg = dataclasses.replace(good, sweep=sweep)  # not validated
    with pytest.raises(ValueError):
        sweep_plan(cfg)
    with pytest.raises(ConfigError, match=rf"^sweep\.{grid}: "):
        cfg.validate()
    good.validate()
    assert len(sweep_plan(good)) == 256


def test_sweep_rejects_empty_grid(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\nsweep: {q: []}\n")
    with pytest.raises(ConfigError, match="nonempty"):
        sweep_plan(load_config(path))


# -- report ---------------------------------------------------------------------------


def synthetic_sweep_csv(tmp_path):
    rows = [
        (RunMetrics(1.0, 1.0, (10.0, 1.0, 1.0), DKPC), "ok"),
        (RunMetrics(2.0, 2.0, (100.0, 1.0, 1.0), DKPC), "ok"),  # dominated
        (RunMetrics(0.5, 3.0, (300.0, 1.0, 1.0), DKPC), "ok"),
        (RunMetrics(1.5, 0.5, (10.0, 1.0, 1.0, 1e4), DEEPC), "ok"),
        (RunMetrics(float("nan"), float("nan"), (10.0, 0.1, 1.0), DKPC), "error:Boom"),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    return path


def test_report_outputs(tmp_path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out"),
                                        "report": {"alphas": 3}}))
    cfg = load_config(cfg_path)
    cfg.resolved_output_dir().mkdir(parents=True, exist_ok=True)
    sweep_csv = synthetic_sweep_csv(cfg.resolved_output_dir())
    paths = cmd_report(cfg, sweep_csv=sweep_csv)
    frontier = read_rows(paths["frontier"])
    dkpc_rows = [r for r in frontier[1:] if r[0] == DKPC]
    # the dominated (2.0, 2.0) point is excluded; the failed row ignored
    assert len(dkpc_rows) == 2
    winners = read_rows(paths["winners"])
    assert len(winners) - 1 == 3
    summary = paths["summary"].read_text()
    assert "alpha=" in summary and "best" in summary


def test_report_missing_sweep(fast_config):
    with pytest.raises(ConfigError, match="sweep CSV"):
        cmd_report(fast_config)


@pytest.mark.parametrize("given", [False, True], ids=["output-dir-csv", "sweep-csv"])
def test_main_report(tmp_path, given):
    # without --sweep-csv report reads <output>/sweep.csv; with it, the
    # file it names (here the only sweep CSV there is)
    out = tmp_path / "out"
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump({"output_dir": str(out), "report": {"alphas": 3}}))
    argv = ["report", "-c", str(cfg_path)]
    assert cli.main(argv + ["--sweep-csv", str(tmp_path / "missing.csv")]) == 2
    out.mkdir()
    if given:
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        argv += ["--sweep-csv", str(synthetic_sweep_csv(elsewhere))]
    else:
        assert synthetic_sweep_csv(out) == out / cli.SWEEP_FILE
    assert cli.main(argv) == 0
    assert len(read_rows(out / cli.WINNERS_FILE)) - 1 == 3
    assert {r[0] for r in read_rows(out / cli.FRONTIER_FILE)[1:]} == {DKPC, DEEPC}
    assert "alpha=" in (out / cli.SUMMARY_FILE).read_text()


# -- main entry point --------------------------------------------------------------


def test_main_gen_data_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump({"output_dir": str(tmp_path / "out")}))
    rc = cli.main(
        ["gen-data", "-c", str(cfg_path)]
        + [arg for override in FAST_OVERRIDES for arg in ("--set", override)]
    )
    assert rc == 0
    assert (tmp_path / "out" / "dataset.csv").exists()
    bad = tmp_path / "bad.yaml"
    bad.write_text("controller: {kind: nonsense}\n")
    assert cli.main(["gen-data", "-c", str(bad)]) == 2


def test_main_output_dir_taken_as_given(tmp_path, monkeypatch):
    # -o names a directory, not a YAML value: 123 is not read as an int
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text("{}\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
    argv = ["gen-data", "-c", str(cfg_path), "-o", "123"]
    assert cli.main(argv + [arg for item in FAST_OVERRIDES for arg in ("--set", item)]) == 0
    assert (tmp_path / "123" / "dataset.csv").exists()


@pytest.fixture(scope="module")
def generated_config(tmp_path_factory):
    """A fast config with one-value sweep grids whose dataset and bank exist."""
    root = tmp_path_factory.mktemp("generated")
    path = root / "exp.yaml"
    path.write_text(yaml.safe_dump({"output_dir": str(root / "out")}))
    grids = ["sweep.q=[300.0]", "sweep.r=[0.01]", "sweep.lambda_g=[500.0]",
             "sweep.lambda_sigma=[1.0e5]"]
    cmd_gen_data(load_config(path, FAST_OVERRIDES + grids))
    return path, FAST_OVERRIDES + grids


INCOMPLETE_NETWORK = "network=<file with an incomplete triple>"

# each override, and the section and key its error must name
BAD_VALUES = [
    ("sim.dt=0", r"sim: dt must"),
    ("plant.k_p=0", r"plant: .*k_p must"),
    ("plant.omega_pc=0", r"plant: .*omega_pc must"),
    ("controller.r=0", r"controller: R must"),
    ("controller.lambda_g=-1", r"controller: lambda_g must"),
    ("sim.sim_steps=0", r"sim: sim_steps must"),
    ("sweep.r=[-1.0]", r"sweep\.r: R must"),
    # every value of every grid is checked, each named by its grid
    ("sweep.q=[10.0, -1.0]", r"sweep\.q: Q must"),
    ("sweep.lambda_g=[1.0, -1.0]", r"sweep\.lambda_g: lambda_g must"),
    ("sweep.lambda_sigma=[1.0e4, 0.0]", r"sweep\.lambda_sigma: lambda_sigma must"),
    ("sweep.r=[]", r"sweep\.r must be nonempty"),
    ("sim.activation_step=1", r"sim\.activation_step must be >= controller\.t_ini"),
    ("sim.disturbance.seed=-1", r"sim\.disturbance\.seed must"),
    ("controller.u_min=2", r"controller: need u_min <= u_max"),
    ("sim.activation_step=30", r"sim: sim_steps must exceed activation_step"),
    ("sweep.q=[10.0, 10.0, 100.0]", r"sweep\.q repeats a value"),
    (INCOMPLETE_NETWORK, r"network: malformed network file"),
    # values read by their field's type: no traceback, no silent conversion
    ("network=5", r"network file not found: 5"),
    ("sweep.q=3", r"bad value for sweep\.q: 3"),
    ("sweep.q=[a]", r"bad value for sweep\.q"),
    ("plant.p_star=abc", r"bad value for plant\.p_star"),
    ("data.seed=1.9", r"bad value for data\.seed"),
    ("sim.activation_step=40.7", r"bad value for sim\.activation_step"),
    ("report.alphas=1.5", r"bad value for report\.alphas"),
    ("report.alphas=0", r"report\.alphas must be >= 1, got 0"),
    ("report.alphas=-1", r"report\.alphas must be >= 1, got -1"),
    ("n_bus=-3", r"n_bus must be >= 1, got -3"),
    ("n_bus=0", r"n_bus must be >= 1, got 0"),
    ("sim.disturbance.around_equilibrium=maybe",
     r"bad value for sim\.disturbance\.around_equilibrium"),
]


def assert_exits_2_before_data_is_read(argv, named, monkeypatch, caplog):
    """Every command given ``argv`` exits 2 with one error matching ``named``."""

    def data_touched(*args, **kwargs):
        raise AssertionError("the command simulated or read data")

    monkeypatch.setattr(netsim, "simulate", data_touched)
    monkeypatch.setattr(behavior, "trajectory_from_csv", data_touched)
    for command in ("gen-data", "run", "sweep"):
        caplog.clear()
        assert cli.main([command] + argv) == 2, command
        errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
        assert len(errors) == 1 and re.search(named, errors[0]), (command, errors)


@pytest.mark.parametrize("override, named", BAD_VALUES, ids=[o for o, _ in BAD_VALUES])
def test_bad_value_exits_2_before_data_is_read(
    generated_config, override, named, tmp_path, monkeypatch, caplog
):
    path, overrides = generated_config
    if override == INCOMPLETE_NETWORK:
        network = tmp_path / "net.txt"
        network.write_text("3\n1 2 10.0\n2 3\n")
        override = f"network={network}"
    argv = ["-c", str(path)]
    for item in overrides + [override]:
        argv += ["--set", item]
    assert_exits_2_before_data_is_read(argv, named, monkeypatch, caplog)


def test_reduced_config_validated_before_data_is_read(generated_config, monkeypatch, caplog):
    # the file's config passes (150 steps); --reduced then cuts the run to
    # REDUCED_SIM_STEPS, which would end before the controller acts
    path, overrides = generated_config
    overrides = overrides + ["sim.sim_steps=150", f"sim.activation_step={cli.REDUCED_SIM_STEPS}"]
    load_config(path, overrides)
    argv = ["-c", str(path), "--reduced"]
    for item in overrides:
        argv += ["--set", item]
    assert_exits_2_before_data_is_read(
        argv, r"sim: sim_steps must exceed activation_step", monkeypatch, caplog)


# -- run statuses ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_context(generated_config):
    """The shared run context of ``generated_config`` and its DKPC controller config."""
    path, overrides = generated_config
    cfg = load_config(path, overrides)
    c = cfg.controller
    return cli._load_run_context(cfg), cli._controller_config(c, c.q, c.r, c.lambda_g)


def four_step_trace(active=(False, True, True, True), status=(SOLVED,) * 4, diverged_at=None):
    """A closed-loop trace of one bus, activated at step 1 unless ``active`` says otherwise."""
    n = len(active)
    return ClosedLoopTrace(
        dt=0.01, t=0.01 * np.arange(n), y=np.full((n, 1), 0.1), u=np.full((n, 1), 0.2),
        active=np.array(active), status=list(status), iterations=np.zeros(n, dtype=int),
        primal_residual=np.zeros(n), dual_residual=np.zeros(n), stage_cost=np.zeros(n),
        activation_step=1, diverged_at=diverged_at)


def raise_value_error():
    raise ValueError("boom")


RUN_OUTCOMES = {
    "ok": four_step_trace,
    # a failed solve before activation is no fallback
    "ok(fallbacks=2)": lambda: four_step_trace(
        status=(MAX_ITERATIONS, MAX_ITERATIONS, SOLVED, INFEASIBLE)),
    "diverged@3": lambda: four_step_trace(diverged_at=3),
    "error:no-active-steps": lambda: four_step_trace(active=(False,) * 4),
    "error:ValueError": raise_value_error,
}


@pytest.mark.parametrize("expected", RUN_OUTCOMES)
def test_execute_status(run_context, expected, monkeypatch):
    ctx, controller_cfg = run_context
    outcome = RUN_OUTCOMES[expected]
    monkeypatch.setattr(cli, "run_closed_loop", lambda plant, controller, scenario: outcome())
    trace, run_metrics, status = cli._execute(ctx, "dkpc", controller_cfg)
    assert status == expected
    assert run_metrics.controller_kind == DKPC
    assert run_metrics.config_tag == (controller_cfg.Q, controller_cfg.R, controller_cfg.lambda_g)
    scored = not expected.startswith("error:")
    assert np.isfinite(run_metrics.epsilon) == np.isfinite(run_metrics.j_u) == scored
    assert (trace is None) == (expected == "error:ValueError")


def test_execute_logs_the_traceback_of_a_failed_run(run_context, monkeypatch, caplog):
    # the row keeps only the exception's type; the log keeps its traceback
    ctx, controller_cfg = run_context
    monkeypatch.setattr(cli, "run_closed_loop",
                        lambda plant, controller, scenario: raise_value_error())
    with caplog.at_level(logging.ERROR, logger="dkpc"):
        _, _, status = cli._execute(ctx, "dkpc", controller_cfg)
    assert status == "error:ValueError"
    [record] = caplog.records
    assert record.exc_info[0] is ValueError and str(record.exc_info[1]) == "boom"
    assert "raise_value_error" in caplog.text and "ValueError: boom" in caplog.text
