import numpy as np
import pytest

from dkpc import behavior, netsim, qpsolve


@pytest.fixture(scope="session")
def small_lti():
    """Stable 3-state, 2-in/2-out system shared by behavioral tests."""
    rng = np.random.default_rng(0)
    return behavior.random_stable_lti(rng, n_states=3, n_u=2, n_y=2, spectral_radius=0.8)


@pytest.fixture(scope="session")
def lti_dataset(small_lti):
    rng = np.random.default_rng(1)
    return small_lti.simulate(rng.uniform(-1.0, 1.0, size=(150, 2)), x0=rng.standard_normal(3))


@pytest.fixture(scope="session")
def plant_setup():
    """Default network, balanced dispatch and settled operating point."""
    net = netsim.default_network(10)
    params = [netsim.InverterParams(p_star=v) for v in (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)]
    cfg = netsim.SimConfig(dt=0.01)
    return net, params, cfg


@pytest.fixture(scope="session")
def plant_dataset(plant_setup):
    net, params, cfg = plant_setup
    eq = netsim.equilibrium_state(params, net)
    rng = np.random.default_rng(1)
    inputs = rng.uniform(-1.0, 1.0, size=(400, net.n_bus))
    return netsim.simulate(eq, inputs, params, net, cfg)


@pytest.fixture
def admm_only(monkeypatch):
    """Every polish attempt fails, so each solve runs ADMM to its own end."""
    monkeypatch.setattr(qpsolve.QpSolver, "_polish", lambda self, y: None)
