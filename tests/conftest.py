import sys
from contextlib import closing
from pathlib import Path

import pytest

from parobs.scenarios import load_scenario

sys.path.insert(0, str(Path(__file__).parent))

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.cfg"


def read_all(ens, backward):
    """Every (k, X_k, dW_k) of one reader pass, in the pass's date order,
    copied; dW_{n_steps} is None.  The first backward pass records the
    ensemble's checkpoints."""
    with closing(ens._read(backward)) as rows:
        return [(k, x.copy(), None if dw is None else dw.copy()) for k, x, dw in rows]


def x_rows(ens):
    """Yield a copy of X_0 .. X_{n_steps} from one closed forward reader
    pass, holding one row at a time where ``read_all`` holds them all."""
    with closing(ens._read(backward=False)) as rows:
        for _, x, _ in rows:
            yield x.copy()


@pytest.fixture(scope="session")
def constant_scenario():
    return load_scenario(scenario_path("constant"))


@pytest.fixture(scope="session")
def heat_scenario():
    return load_scenario(scenario_path("heat_bump"))


@pytest.fixture(scope="session")
def sine_scenario():
    return load_scenario(scenario_path("sine_coef"))


@pytest.fixture(scope="session")
def put_scenario():
    return load_scenario(scenario_path("american_put"))


@pytest.fixture(scope="session")
def quad_scenario():
    return load_scenario(scenario_path("obstacle_quad"))


@pytest.fixture(scope="session")
def all_scenarios(constant_scenario, heat_scenario, sine_scenario, put_scenario, quad_scenario):
    return {
        "constant": constant_scenario,
        "heat-bump": heat_scenario,
        "sine-coef": sine_scenario,
        "american-put": put_scenario,
        "obstacle-quad": quad_scenario,
    }
