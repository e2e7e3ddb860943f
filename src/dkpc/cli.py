"""Command-line experiment harness.

One YAML config file drives four commands: ``gen-data`` simulates the
plant under seeded random inputs and stores the dataset and observable
bank, ``run`` executes a single closed loop, ``sweep`` enumerates the
tuning grids for both controllers, and ``report`` turns a sweep CSV
into frontier/winner artifacts.  All randomness flows from named seeds
in the config, so artifact trees are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import behavior, lifting, metrics, netsim
from .control import (
    ClosedLoopTrace,
    ControllerConfig,
    DeepcController,
    DkpcController,
    Scenario,
    run_closed_loop,
)

log = logging.getLogger("dkpc")

OUTPUT_ROOT_ENV = "DKPC_OUTPUT_ROOT"

REDUCED_DATA_LENGTH = 300
REDUCED_SIM_STEPS = 80
REDUCED_N_BASIS = 10

DATASET_FILE = "dataset.csv"
BANK_FILE = "bank.json"
TRACE_FILE = "trace.csv"
METRICS_FILE = "metrics.csv"
SWEEP_FILE = "sweep.csv"
FRONTIER_FILE = "frontier.csv"
WINNERS_FILE = "winners.csv"
SUMMARY_FILE = "summary.txt"


class ConfigError(ValueError):
    """Raised for invalid or inconsistent experiment configuration."""


def _number(value):
    """A YAML number, or a string that reads as one (YAML 1.1 reads 1.0e5 as a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"not a number: {value!r}")
    return float(value) if isinstance(value, str) else value


def _coerce(kind: str, value):
    """``value`` as a field annotated ``kind``, with no silent conversion.

    Int fields take integral numbers, bool fields YAML booleans, str
    fields scalars, tuple fields lists of numbers, float fields numbers
    and ``p_star`` either; None only where the annotation allows it.
    """
    if (value is None and "None" in kind) or (kind == "bool" and isinstance(value, bool)):
        return value
    if kind == "str" and isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return str(value)
    if "tuple" in kind and isinstance(value, (list, tuple)):
        return tuple(float(_number(v)) for v in value)
    number = _number(value)
    if kind == "int" and float(number).is_integer():
        return int(number)
    if kind.startswith("float"):
        return number if "tuple" in kind else float(number)
    raise TypeError(f"expected {kind}, got {value!r}")


def _from_mapping(default, data: dict | None, where: str = ""):
    """``default`` with the keys of ``data`` applied through ``replace``.

    Keys of a dataclass-valued field recurse into that field's default
    instance, so a partial ``sim.disturbance`` keeps the other defaults
    (seed 7 included).  Every other value is read by its field's
    declared type (``_coerce``).  ``where`` is the dotted path, empty at
    the top.
    """
    if data is not None and not isinstance(data, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {type(data).__name__}")
    data = dict(data or {})
    fields = default.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        place = f"keys in {where}" if where else "top-level config keys"
        raise ConfigError(f"unknown {place}: {sorted(unknown)}")
    coerced = {}
    for name, value in data.items():
        key = f"{where}.{name}" if where else name
        current = getattr(default, name)
        if is_dataclass(current):
            coerced[name] = _from_mapping(current, value, key)
            continue
        try:
            coerced[name] = _coerce(fields[name].type, value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return replace(default, **coerced)


@dataclass(frozen=True)
class PlantSection:
    """Inverter parameters; ``p_star`` is a scalar or a per-bus list.

    The default dispatch pairs five units generating at the nominal
    1 p.u. setpoint with five absorbing units, so the network carries a
    balanced flow and the zero-input operating point exists.
    """

    p_star: float | tuple = (1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0)
    k_p: float = netsim.InverterParams.k_p
    omega_pc: float = netsim.InverterParams.omega_pc
    omega_b: float = netsim.InverterParams.omega_b
    filter_mode: str = netsim.SimConfig.filter_mode

    def __post_init__(self) -> None:
        if isinstance(self.p_star, (list, tuple)):
            object.__setattr__(self, "p_star", tuple(float(v) for v in self.p_star))


@dataclass(frozen=True)
class SimSection:
    """Closed-loop timing and the initial disturbance (seed 7 unless configured)."""

    dt: float = netsim.SimConfig.dt
    sim_steps: int = 150
    activation_step: int = 40
    disturbance: netsim.DisturbanceSpec = field(
        default_factory=lambda: netsim.DisturbanceSpec(seed=7)
    )


@dataclass(frozen=True)
class DataSection:
    length: int = 1000
    input_low: float = -1.0
    input_high: float = 1.0
    start: str = "equilibrium"  # "equilibrium" | "zero"
    seed: int = 1


@dataclass(frozen=True)
class LiftingSection:
    n_basis: int = 40
    seed: int = 5


@dataclass(frozen=True)
class ControllerSection:
    """The run's controller; every default is the library's (``ControllerConfig``)."""

    kind: str = "dkpc"
    t_ini: int = ControllerConfig.t_ini
    horizon: int = ControllerConfig.horizon
    q: float = ControllerConfig.Q
    r: float = ControllerConfig.R
    lambda_g: float = ControllerConfig.lambda_g
    lambda_sigma: float | None = None
    u_min: float = ControllerConfig.u_min
    u_max: float = ControllerConfig.u_max


@dataclass(frozen=True)
class SweepSection:
    q: tuple = (10.0, 100.0, 300.0, 1000.0)
    r: tuple = (0.001, 0.01, 0.1, 1.0)
    lambda_g: tuple = (1.0, 10.0, 100.0, 1000.0)
    lambda_sigma: tuple = (1e4, 1e5, 1e6)

    def __post_init__(self) -> None:
        for name in ("q", "r", "lambda_g", "lambda_sigma"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))


@dataclass(frozen=True)
class ReportSection:
    alphas: int = 11  # how many weights alpha, evenly spaced in [0, 1], the winners score; >= 1


@dataclass(frozen=True)
class ExperimentConfig:
    network: str = "default"
    n_bus: int = 10
    output_dir: str = "out"
    plant: PlantSection = field(default_factory=PlantSection)
    sim: SimSection = field(default_factory=SimSection)
    data: DataSection = field(default_factory=DataSection)
    lifting: LiftingSection = field(default_factory=LiftingSection)
    controller: ControllerSection = field(default_factory=ControllerSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    report: ReportSection = field(default_factory=ReportSection)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The defaults with ``data``'s keys applied, validated."""
        cfg = _from_mapping(cls(), data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = asdict(self)
        out["sweep"] = {k: list(v) for k, v in out["sweep"].items()}
        return out

    def validate(self) -> None:
        """Raise ConfigError, naming the key, for a value the run would reject.

        Beyond the cross-field checks it builds what the commands build
        from the config (``SimConfig``, the scenario, the shared
        ``InverterParams`` fields and the controller config) and rejects
        negative seeds, so a bad value fails here, before any data is
        simulated or read.  Each sweep grid value is checked once, in a
        controller config with the section's other weights: the config
        checks each weight on its own, so a sweep config fails exactly
        when one of its grid values does.
        """
        if self.n_bus < 1:
            raise ConfigError(f"n_bus must be >= 1, got {self.n_bus}")
        c = self.controller
        if c.kind not in ("dkpc", "deepc"):
            raise ConfigError(f"controller.kind must be 'dkpc' or 'deepc', got {c.kind!r}")
        if c.kind == "dkpc" and c.lambda_sigma is not None:
            raise ConfigError(
                "controller.lambda_sigma is set for the deepc controller only; dkpc runs "
                f"at the library default {ControllerConfig.lambda_sigma:g}"
            )
        if c.kind == "deepc" and c.lambda_sigma is None:
            raise ConfigError("deepc controller requires lambda_sigma")
        steps, start = self.sim.sim_steps, self.sim.activation_step
        if start < c.t_ini:
            raise ConfigError(f"sim.activation_step must be >= controller.t_ini to prime "
                              f"the buffers: {start} < {c.t_ini}")
        if steps <= start:  # the controller would never act
            raise ConfigError(f"sim: sim_steps must exceed activation_step: {steps} <= {start}")
        if self.data.length < 1 or self.lifting.n_basis < 1:
            raise ConfigError("data.length and lifting.n_basis must be >= 1")
        if self.data.input_low > self.data.input_high:
            raise ConfigError("data.input_low must not exceed data.input_high")
        if self.data.start not in ("equilibrium", "zero"):
            raise ConfigError("data.start must be 'equilibrium' or 'zero'")
        if self.report.alphas < 1:
            raise ConfigError(f"report.alphas must be >= 1, got {self.report.alphas}")
        seeds = {
            "data.seed": self.data.seed,
            "lifting.seed": self.lifting.seed,
            "sim.disturbance.seed": self.sim.disturbance.seed,
        }
        for key, seed in seeds.items():
            if seed < 0:
                raise ConfigError(f"{key} must be >= 0, got {seed}")
        grids = asdict(self.sweep)
        for name, grid in grids.items():
            if not grid:
                raise ConfigError(f"sweep.{name} must be nonempty")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"sweep.{name} repeats a value: {list(grid)}")
        p = self.plant
        builds = [  # each section's values in the library objects that check them
            ("sim", lambda: (netsim.SimConfig(dt=self.sim.dt), _scenario(self))),
            ("plant", lambda: (
                netsim.SimConfig(filter_mode=p.filter_mode),
                netsim.InverterParams(k_p=p.k_p, omega_pc=p.omega_pc, omega_b=p.omega_b),
            )),
            ("controller", partial(_controller_config, c, c.q, c.r, c.lambda_g, c.lambda_sigma)),
        ]
        weights = dict(q=c.q, r=c.r, lambda_g=c.lambda_g, lambda_sigma=None)
        builds += [(f"sweep.{name}", partial(_controller_config, c, **{**weights, name: value}))
                   for name, grid in grids.items() for value in grid]
        for where, build in builds:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc

    def config_hash(self) -> str:
        """Hash of the experiment; where its artifacts are written is not part of it."""
        experiment = self.to_dict()
        del experiment["output_dir"]
        canon = json.dumps(experiment, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def hash_comment(self) -> str:
        """The ``config_hash=...`` comment line every artifact carries."""
        return f"config_hash={self.config_hash()}"

    def resolved_output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            return Path(root) / self.output_dir
        return Path(self.output_dir)


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Parse the YAML config file, then apply ``section.key=value`` overrides."""
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        node = data
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-mapping key {key!r}")
        node[keys[-1]] = yaml.safe_load(raw)
    return ExperimentConfig.from_dict(data)


def apply_reduced(cfg: ExperimentConfig) -> ExperimentConfig:
    """Desk-scale variant: shorter data and run, every other value of each sorted grid.

    The observable count shrinks with the dataset so the persistency
    requirement (order ``n_basis + t_ini + horizon``) stays satisfiable
    by the shorter record.  ``main`` validates the result.
    """
    return replace(
        cfg,
        data=replace(cfg.data, length=REDUCED_DATA_LENGTH),
        sim=replace(cfg.sim, sim_steps=REDUCED_SIM_STEPS),
        lifting=replace(cfg.lifting, n_basis=min(cfg.lifting.n_basis, REDUCED_N_BASIS)),
        sweep=SweepSection(**{k: sorted(v)[::2] for k, v in asdict(cfg.sweep).items()}),
    )


# -- shared experiment assembly -------------------------------------------


def _load_network(cfg: ExperimentConfig) -> netsim.NetworkGraph:
    """The default network or the configured file; ConfigError for a missing or bad file."""
    if cfg.network == "default":
        return netsim.default_network(cfg.n_bus)
    path = Path(cfg.network)
    if not path.exists():
        raise ConfigError(f"network file not found: {path}")
    try:
        return netsim.load_network(path)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _inverter_params(cfg: ExperimentConfig, n_bus: int):
    p = cfg.plant
    if isinstance(p.p_star, tuple):
        if len(p.p_star) != n_bus:
            raise ConfigError(
                f"plant.p_star lists {len(p.p_star)} setpoints but the network has {n_bus} buses"
            )
        setpoints = p.p_star
    else:
        setpoints = (float(p.p_star),) * n_bus
    return [
        netsim.InverterParams(p_star=v, k_p=p.k_p, omega_pc=p.omega_pc, omega_b=p.omega_b)
        for v in setpoints
    ]


def _sim_config(cfg: ExperimentConfig) -> netsim.SimConfig:
    return netsim.SimConfig(dt=cfg.sim.dt, filter_mode=cfg.plant.filter_mode)


def _scenario(cfg: ExperimentConfig) -> Scenario:
    return Scenario(
        sim_steps=cfg.sim.sim_steps,
        activation_step=cfg.sim.activation_step,
        disturbance=cfg.sim.disturbance,
    )


def _controller_config(
    section: ControllerSection,
    q: float,
    r: float,
    lambda_g: float,
    lambda_sigma: float | None = None,
) -> ControllerConfig:
    """The section's windows and input box with these weights.

    ``lambda_sigma`` None keeps the library default.
    """
    weights = {} if lambda_sigma is None else {"lambda_sigma": lambda_sigma}
    return ControllerConfig(
        t_ini=section.t_ini,
        horizon=section.horizon,
        Q=q,
        R=r,
        lambda_g=lambda_g,
        u_min=section.u_min,
        u_max=section.u_max,
        **weights,
    )


def sweep_plan(cfg: ExperimentConfig) -> list[tuple[str, ControllerConfig]]:
    """``(kind, config)`` runs of the full grid cross product, in sweep CSV row order.

    The ``deepc`` runs come first, one per ``lambda_sigma`` grid value,
    then the ``dkpc`` runs at the library default weight, each over the
    sorted grids (nonempty in a validated config).  Raises ValueError
    for a grid value a controller config rejects.
    """
    s = cfg.sweep
    grid = [(q, r, lg) for q in sorted(s.q) for r in sorted(s.r) for lg in sorted(s.lambda_g)]
    c = cfg.controller
    deepc = [("deepc", _controller_config(c, *g, ls))
             for g in grid for ls in sorted(s.lambda_sigma)]
    return deepc + [("dkpc", _controller_config(c, *g)) for g in grid]


# -- commands ----------------------------------------------------------------


def cmd_gen_data(cfg: ExperimentConfig) -> dict[str, Path]:
    """Simulate the plant under seeded uniform random inputs; write dataset and bank."""
    depth = cfg.controller.t_ini + cfg.controller.horizon
    if cfg.data.length < depth:
        raise ConfigError(
            f"data.length={cfg.data.length} is shorter than the Hankel depth "
            f"t_ini + horizon = {depth}"
        )
    net = _load_network(cfg)
    params = _inverter_params(cfg, net.n_bus)
    sim_cfg = _sim_config(cfg)
    rng = np.random.default_rng(cfg.data.seed)
    inputs = rng.uniform(
        cfg.data.input_low, cfg.data.input_high, size=(cfg.data.length, net.n_bus)
    )
    if cfg.data.start == "equilibrium":
        initial = netsim.equilibrium_state(params, net)
    else:
        initial = netsim.SimState.zeros(net.n_bus)
    traj = netsim.simulate(initial, inputs, params, net, sim_cfg)
    bank = lifting.build_bank(traj.y, cfg.lifting.n_basis, cfg.lifting.seed)

    pe_order = behavior.pe_order(cfg.lifting.n_basis, cfg.controller.t_ini, cfg.controller.horizon)
    pe = behavior.is_persistently_exciting(traj.u, pe_order)
    if pe:
        log.info(
            "PE check (order %d): ok, rank %d/%d (%s)",
            pe_order, pe.rank, pe.required_rank, pe.decided_by,
        )
    else:
        log.warning("PE check (order %d) FAILED: %s (%s)", pe_order, pe.reason, pe.decided_by)

    out = cfg.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    dataset = out / DATASET_FILE
    behavior.trajectory_to_csv(traj, dataset, comment=cfg.hash_comment())
    bank_path = out / BANK_FILE
    lifting.save_bank(bank, bank_path)
    log.info("wrote %s and %s", dataset, bank_path)
    return {"dataset": dataset, "bank": bank_path}


@dataclass
class _RunContext:
    """Everything a closed-loop run needs besides its tuning."""

    cfg: ExperimentConfig
    net: netsim.NetworkGraph
    params: list[netsim.InverterParams]
    sim_cfg: netsim.SimConfig
    hs: behavior.HankelSystem
    bank: lifting.RbfBank
    scenario: Scenario


def _read_artifact(read, path: Path):
    """``read(path)``; ConfigError naming the file for one it cannot read."""
    try:
        return read(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {path} ({type(exc).__name__}: {exc})") from exc


def _load_run_context(cfg: ExperimentConfig) -> _RunContext:
    """Network, dataset, bank and Hankel system; the network is read first.

    Raises ConfigError for a missing or malformed dataset or bank, and
    for data the controllers would refuse: too short for the Hankel
    depth or not persistently exciting.
    """
    net = _load_network(cfg)
    out = cfg.resolved_output_dir()
    dataset = out / DATASET_FILE
    bank_path = out / BANK_FILE
    if not dataset.exists() or not bank_path.exists():
        raise ConfigError(
            f"dataset not found in {out}; run the gen-data command first"
        )
    traj = _read_artifact(behavior.trajectory_from_csv, dataset)
    bank = _read_artifact(lifting.load_bank, bank_path)
    try:
        hs = behavior.assemble(traj, bank, cfg.controller.t_ini, cfg.controller.horizon)
    except ValueError as exc:
        raise ConfigError(f"{dataset}: {exc}") from exc
    if not hs.pe_report:
        raise ConfigError(f"{dataset}: data fails persistency of excitation of order "
                          f"{hs.pe_report.order}: {hs.pe_report.reason}")
    return _RunContext(
        cfg=cfg,
        net=net,
        params=_inverter_params(cfg, net.n_bus),
        sim_cfg=_sim_config(cfg),
        hs=hs,
        bank=bank,
        scenario=_scenario(cfg),
    )


def _execute(
    ctx: _RunContext, kind: str, controller_cfg: ControllerConfig
) -> tuple[ClosedLoopTrace | None, metrics.RunMetrics, str]:
    """One closed-loop run of the ``kind`` controller; failures are captured, not raised.

    The metrics tag is ``(Q, R, lambda_g)``, plus ``lambda_sigma`` for deepc.
    """
    tag = (controller_cfg.Q, controller_cfg.R, controller_cfg.lambda_g)
    if kind == "deepc":
        controller = DeepcController(ctx.hs, controller_cfg)
        tag += (controller_cfg.lambda_sigma,)
    else:
        controller = DkpcController(ctx.hs, ctx.bank, controller_cfg)
    failed = metrics.RunMetrics(math.nan, math.nan, tag, controller.kind)
    plant = netsim.NetworkPlant(ctx.net, ctx.params, ctx.sim_cfg)
    try:
        trace = run_closed_loop(plant, controller, ctx.scenario)
    except Exception as exc:  # run failures become rows, the sweep continues
        log.error("%s run %s failed", controller.kind, tag, exc_info=True)
        return None, failed, f"error:{type(exc).__name__}"
    window = trace.active
    if not np.any(window):
        return trace, failed, "error:no-active-steps"
    errors = trace.y[window]  # regulation to zero
    run_metrics = metrics.RunMetrics(
        epsilon=metrics.itae(errors, trace.dt),
        j_u=metrics.control_effort(trace.u[window]),
        config_tag=tag,
        controller_kind=controller.kind,
    )
    status = "ok"
    if trace.diverged_at is not None:
        status = f"diverged@{trace.diverged_at}"
    elif np.any(trace.fallback):
        status = f"ok(fallbacks={int(np.sum(trace.fallback))})"
    return trace, run_metrics, status


def cmd_run(cfg: ExperimentConfig) -> dict[str, Path]:
    """Single closed-loop run with the configured controller; writes trace + metrics."""
    ctx = _load_run_context(cfg)
    c = cfg.controller
    trace, run_metrics, status = _execute(
        ctx, c.kind, _controller_config(c, c.q, c.r, c.lambda_g, c.lambda_sigma)
    )
    if trace is None:
        raise RuntimeError(f"closed-loop run failed: {status}")
    out = cfg.resolved_output_dir()
    comment = cfg.hash_comment()
    trace_path = out / TRACE_FILE
    trace.to_csv(trace_path, comment=comment)
    metrics_path = out / METRICS_FILE
    metrics.write_sweep_csv([(run_metrics, status)], metrics_path, comment=comment)
    log.info("run %s finished: %s (epsilon=%g, J_u=%g)",
             run_metrics.controller_kind, status, run_metrics.epsilon, run_metrics.j_u)
    return {"trace": trace_path, "metrics": metrics_path}


_SWEEP_CTX: _RunContext | None = None


def _sweep_worker(run: tuple[str, ControllerConfig]) -> tuple[metrics.RunMetrics, str]:
    assert _SWEEP_CTX is not None
    _, run_metrics, status = _execute(_SWEEP_CTX, *run)
    return run_metrics, status


def cmd_sweep(cfg: ExperimentConfig, workers: int = 1) -> Path:
    """Run every grid combination against the shared dataset; write sweep CSV."""
    global _SWEEP_CTX
    plan = sweep_plan(cfg)
    ctx = _load_run_context(cfg)
    n_deepc = sum(kind == "deepc" for kind, _ in plan)
    log.info("sweep: %d runs (%d dkpc, %d deepc)", len(plan), len(plan) - n_deepc, n_deepc)
    _SWEEP_CTX = ctx
    try:
        if workers > 1 and sys.platform.startswith("linux"):
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                results = pool.map(_sweep_worker, plan)
        else:
            results = [_sweep_worker(c) for c in plan]
    finally:
        _SWEEP_CTX = None
    rows = list(zip((m for m, _ in results), (s for _, s in results)))
    out = cfg.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / SWEEP_FILE
    metrics.write_sweep_csv(rows, path, comment=cfg.hash_comment())
    log.info("wrote %s (%d rows)", path, len(rows))
    return path


def cmd_report(cfg: ExperimentConfig, sweep_csv: Path | None = None) -> dict[str, Path]:
    """Emit frontier, per-alpha winner table and text summary from a sweep CSV."""
    out = cfg.resolved_output_dir()
    path = sweep_csv if sweep_csv is not None else out / SWEEP_FILE
    if not Path(path).exists():
        raise ConfigError(f"sweep CSV not found: {path}")
    rows = _read_artifact(metrics.read_sweep_csv, path)
    usable = [m for m, status in rows if status.startswith("ok") and math.isfinite(m.epsilon)]
    dkpc_rows = [m for m in usable if m.controller_kind == metrics.DKPC]
    deepc_rows = [m for m in usable if m.controller_kind == metrics.DEEPC]
    comment = cfg.hash_comment()

    frontiers = {}
    if dkpc_rows:
        frontiers[metrics.DKPC] = metrics.pareto_frontier(dkpc_rows)
    if deepc_rows:
        frontiers[metrics.DEEPC] = metrics.pareto_frontier(deepc_rows)
    frontier_path = out / FRONTIER_FILE
    metrics.write_frontier_csv(frontiers, frontier_path, comment=comment)

    paths = {"frontier": frontier_path}
    lines = [f"sweep report ({comment})",
             f"rows: {len(rows)} total, {len(usable)} usable "
             f"({len(dkpc_rows)} DKPC, {len(deepc_rows)} DeePC)"]
    for kind in sorted(frontiers):
        lines.append(f"{kind} frontier size: {len(frontiers[kind])}")

    if dkpc_rows and deepc_rows:
        alphas = np.linspace(0.0, 1.0, cfg.report.alphas)
        winners = metrics.best_per_alpha(dkpc_rows, deepc_rows, alphas)
        winners_path = out / WINNERS_FILE
        metrics.write_winners_csv(winners, winners_path, comment=comment)
        paths["winners"] = winners_path
        for w in winners:
            lines.append(
                f"alpha={w.alpha:.3f}: DKPC S={w.dkpc_index:.6f} {w.dkpc_tag} | "
                f"DeePC S={w.deepc_index:.6f} {w.deepc_tag} -> best {w.winner}"
            )
    else:
        lines.append("winner table skipped: need usable rows from both controllers")

    summary_path = out / SUMMARY_FILE
    summary_path.write_text("\n".join(lines) + "\n")
    paths["summary"] = summary_path
    log.info("wrote %s", summary_path)
    return paths


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkpc",
        description="Data-driven Koopman predictive control experiment harness",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", required=True, help="YAML experiment config")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key, e.g. --set controller.q=100",
        )
        p.add_argument("-o", "--output-dir", help="override output directory")
        p.add_argument(
            "--reduced",
            action="store_true",
            help=f"desk-scale run: data length {REDUCED_DATA_LENGTH}, "
            f"{REDUCED_SIM_STEPS} closed-loop steps, {REDUCED_N_BASIS} observables, "
            "grids halved",
        )

    common(sub.add_parser("gen-data", help="generate the excitation dataset and bank"))
    common(sub.add_parser("run", help="run one closed loop and score it"))
    p_sweep = sub.add_parser("sweep", help="run the full tuning grid for both controllers")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_report = sub.add_parser("report", help="emit frontier and winner tables from a sweep")
    common(p_report)
    p_report.add_argument("--sweep-csv", help="sweep CSV path (default: <output>/sweep.csv)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.overrides)
        if args.output_dir:  # a path as given, not a YAML value
            cfg = replace(cfg, output_dir=args.output_dir)
        if args.reduced:  # -o changes no validated value; --reduced may
            cfg = apply_reduced(cfg)
            cfg.validate()
        if args.command == "gen-data":
            cmd_gen_data(cfg)
        elif args.command == "run":
            cmd_run(cfg)
        elif args.command == "sweep":
            cmd_sweep(cfg, workers=args.workers)
        elif args.command == "report":
            sweep_csv = Path(args.sweep_csv) if args.sweep_csv else None
            cmd_report(cfg, sweep_csv=sweep_csv)
    except (ConfigError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
