"""perfbench's tracer and step log installed against the real package.

The benchmark wraps ``dkpc`` functions and methods by name.  A change that
drops or bypasses one of those names must fail here, not only in the
benchmark's traced pass.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from dkpc import control
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
                for span in ("control.build_qp", "control.solve_step"):
                    added = tracer.counts[span] - before.get(span, 0)
                    assert added >= 1, f"no {span} span from a {kind} run"
        finally:
            tracer.restore()
    finally:
        log.restore()

    assert [run.kind for run in log.runs] == ["DKPC", "DeePC"]
    assert all(len(run.times) == 3 for run in log.runs)
    for cls in (control.DkpcController, control.DeepcController):
        assert "solve_step" not in vars(cls)
    assert (control.build_dkpc_qp, control.build_deepc_qp, control.run_closed_loop) == originals
