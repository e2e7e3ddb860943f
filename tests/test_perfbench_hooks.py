"""perfbench's tracer and step log installed against the real package.

The benchmark wraps ``dkpc`` functions and methods by name.  A change that
drops or bypasses one of those names must fail here, not only in the
benchmark's traced pass.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from dkpc import behavior, control, netsim
from dkpc.behavior import assemble
from dkpc.lifting import build_bank

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture()
def perfbench(monkeypatch):
    """The perfbench modules, imported without leaking their BLAS pinning."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in BLAS_VARS:  # run.py sets these on import; undone at teardown
        monkeypatch.setenv(var, "1")
    names = ("run", "tracing", "workloads")
    return {name: importlib.import_module(name) for name in names}


def test_perfbench_hooks_see_both_controllers(perfbench, small_lti, lti_dataset):
    bank = build_bank(lti_dataset.y, 12, seed=3)
    hs = assemble(lti_dataset, bank, t_ini=4, horizon=8, pe_check=False)
    common = dict(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=1.0, u_min=-2.0, u_max=2.0)
    makers = {
        "DKPC": lambda: control.DkpcController(hs, bank, control.DkpcConfig(**common)),
        "DeePC": lambda: control.DeepcController(
            hs, control.DeepcConfig(lambda_sigma=1e5, **common)
        ),
    }
    originals = (control.build_dkpc_qp, control.build_deepc_qp, control.run_closed_loop)
    x0 = np.random.default_rng(2).standard_normal(3)
    scenario = control.Scenario(sim_steps=8, activation_step=5)

    log = perfbench["workloads"].StepLog()
    tracer = perfbench["tracing"].Tracer()
    log.install()
    try:
        perfbench["run"].install_tracer(tracer)
        try:
            for kind, make in makers.items():
                before = dict(tracer.counts)
                control.run_closed_loop(control.LtiPlant(small_lti, x0=x0), make(), scenario)
                # one cold build and three active steps; two builder names
                # bound to one function would nest a second build span
                for span, expected in (("control.build_qp", 1), ("control.solve_step", 3)):
                    added = tracer.counts[span] - before.get(span, 0)
                    assert added == expected, f"{added} {span} spans from a {kind} run"
        finally:
            tracer.restore()
    finally:
        log.restore()

    assert [run.kind for run in log.runs] == ["DKPC", "DeePC"]
    assert all(len(run.times) == 3 for run in log.runs)
    for cls in (control.DkpcController, control.DeepcController):
        assert "solve_step" not in vars(cls)
    assert (control.build_dkpc_qp, control.build_deepc_qp, control.run_closed_loop) == originals


def test_perfbench_hooks_see_model_building(perfbench, plant_setup):
    net, params, cfg = plant_setup
    inputs = np.random.default_rng(4).uniform(-1.0, 1.0, size=(200, net.n_bus))
    start = netsim.equilibrium_state(params, net)
    originals = (netsim.simulate, behavior.assemble, behavior.is_persistently_exciting)
    tracer = perfbench["tracing"].Tracer()
    perfbench["run"].install_tracer(tracer)
    try:
        data = netsim.simulate(start, inputs, params, net, cfg)
        bank = build_bank(data.y, 4, seed=0)
        hs = behavior.assemble(data, bank, t_ini=2, horizon=3)
        plant = netsim.NetworkPlant(net, params, cfg, initial=start)
        plant.step(inputs[0])
    finally:
        tracer.restore()
    assert hs.pe_report.decided_by == behavior.PE_CHOLESKY
    for span in ("netsim.simulate", "behavior.assemble", "behavior.pe_check", "netsim.plant_step"):
        assert tracer.counts[span] == 1, f"no {span} span"
    spans = {span[0]: span for span in tracer.spans}
    # the PE check is timed inside the assemble span that calls it
    assert tracer.spans[spans["behavior.pe_check"][3]][0] == "behavior.assemble"
    # assemble builds its three blocks; the certificate builds no Hankel
    parents = [tracer.spans[span[3]][0] for span in tracer.spans if span[0] == "behavior.hankel"]
    assert parents == ["behavior.assemble"] * 3
    assert (netsim.simulate, behavior.assemble, behavior.is_persistently_exciting) == originals
