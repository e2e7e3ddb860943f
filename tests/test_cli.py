import csv
import re

import pytest
import yaml

from dkpc import behavior, cli, netsim
from dkpc.control import DeepcConfig
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
    with pytest.raises(ConfigError, match="lambda_sigma"):
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
    import logging

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
    n_deepc = sum(isinstance(c, DeepcConfig) for c in plan)
    assert (len(plan) - n_deepc, n_deepc) == (64, 192)
    # sweep.csv row order: every DeePC config, then every DKPC config
    assert all(isinstance(c, DeepcConfig) for c in plan[:n_deepc])


def test_sweep_plan_reduced_counts(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("output_dir: out\n")
    plan = sweep_plan(apply_reduced(load_config(path)))
    n_deepc = sum(isinstance(c, DeepcConfig) for c in plan)
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
    ("sweep.r=[-1.0]", r"sweep: R must"),
    ("sim.disturbance.seed=-1", r"sim\.disturbance\.seed must"),
    (INCOMPLETE_NETWORK, r"network: malformed network file"),
]


@pytest.mark.parametrize("override, named", BAD_VALUES, ids=[o for o, _ in BAD_VALUES])
def test_bad_value_exits_2_before_data_is_read(
    generated_config, override, named, tmp_path, monkeypatch, caplog
):
    path, overrides = generated_config
    if override == INCOMPLETE_NETWORK:
        network = tmp_path / "net.txt"
        network.write_text("3\n1 2 10.0\n2 3\n")
        override = f"network={network}"

    def data_touched(*args, **kwargs):
        raise AssertionError("the command simulated or read data")

    monkeypatch.setattr(netsim, "simulate", data_touched)
    monkeypatch.setattr(behavior, "trajectory_from_csv", data_touched)
    for command in ("gen-data", "run", "sweep"):
        caplog.clear()
        argv = [command, "-c", str(path)]
        for item in overrides + [override]:
            argv += ["--set", item]
        assert cli.main(argv) == 2, command
        errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
        assert len(errors) == 1 and re.search(named, errors[0]), (command, errors)
