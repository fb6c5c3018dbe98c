from contextlib import contextmanager

import numpy as np
import pytest

from entlap import corpus
from entlap.exact import Exact


@pytest.fixture(scope="session")
def psi():
    return corpus.build("psi")


@pytest.fixture(scope="session")
def rho1():
    return corpus.build("rho1")


@pytest.fixture(scope="session")
def rho2():
    return corpus.build("rho2")


@pytest.fixture(scope="session")
def rho3():
    return corpus.build("rho3")


@pytest.fixture(scope="session")
def rho5():
    return corpus.build("rho5")


@pytest.fixture()
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture()
def exact_created(monkeypatch):
    """A context manager that lists every Exact constructed inside its block."""
    original = Exact.__init__

    @contextmanager
    def counting():
        created = []

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            created.append(obj)

        monkeypatch.setattr(Exact, "__init__", init)
        try:
            yield created
        finally:
            monkeypatch.setattr(Exact, "__init__", original)

    return counting
