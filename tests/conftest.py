import pytest
from hypothesis import settings

from ehsobs import default_scenario, nofault_scenario, noisy_scenario, run_scenario

# Same examples on every run, and no wall-clock deadline: a loaded host
# must not turn a slow example into a failure.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fault_scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def fault_trace(fault_scenario):
    """ASTW run of the shipped default (two-stage leakage) scenario."""
    return run_scenario(fault_scenario)


@pytest.fixture(scope="session")
def stw_trace(fault_scenario):
    return run_scenario(fault_scenario, observer_kind="stw")


@pytest.fixture(scope="session")
def fosmo_trace(fault_scenario):
    return run_scenario(fault_scenario, observer_kind="fosmo")


@pytest.fixture(scope="session")
def nofault_trace():
    return run_scenario(nofault_scenario())


@pytest.fixture(scope="session")
def noisy_trace():
    return run_scenario(noisy_scenario())
