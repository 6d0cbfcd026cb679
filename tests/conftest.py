"""Shared worked systems.

Transfer functions and their realizations used across the suite:

* ``osc``         G(s) = 1/(s^2 + 1)   lossless plant, poles at +-j
* ``ctrl_half``   H(s) = 0.5/(s + 1)   SNI controller, hand certificate P = 0.5
* ``ctrl_one``    H(s) = 1/(s + 1)     DC-gain boundary case
* ``ctrl_two``    H(s) = 2/(s + 1)     violates the DC-gain condition
* ``first_order`` G(s) = 1/(s + 1)     hand certificate P = 1
* ``s_over``      G(s) = s/(s + 1)     not NI (imaginary part has the wrong sign)
* ``s_over_s2``   G(s) = s/(s^2 + 1)   non-Hermitian residue at the axis pole
"""

import collections

import numpy as np
import pytest

from nistab import StateSpace


@pytest.fixture
def osc():
    return StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                      label="osc")


@pytest.fixture
def ctrl_half():
    return StateSpace([[-1.0]], [[1.0]], [[0.5]], [[0.0]], label="ctrl-half")


@pytest.fixture
def ctrl_one():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]], label="ctrl-one")


@pytest.fixture
def ctrl_two():
    return StateSpace([[-1.0]], [[1.0]], [[2.0]], [[0.0]], label="ctrl-two")


@pytest.fixture
def first_order():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]], label="first-order")


@pytest.fixture
def s_over():
    # s/(s+1) = 1 - 1/(s+1)
    return StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]], label="s-over-s-plus-1")


@pytest.fixture
def s_over_s2():
    return StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.0]],
                      label="s-over-s2-plus-1")


@pytest.fixture
def frequency_response_calls(monkeypatch) -> list:
    """Labels of the systems passed to ``frequency_response``, patched in every nistab
    module that holds it."""
    import nistab.cli
    import nistab.interconnect
    import nistab.nicert
    import nistab.selftest

    calls = []
    real = nistab.nicert.frequency_response

    def counted(*args, **kwargs):
        calls.append(args[0].label)
        return real(*args, **kwargs)

    for mod in (nistab.cli, nistab.interconnect, nistab.nicert, nistab.selftest):
        monkeypatch.setattr(mod, "frequency_response", counted)
    return calls


@pytest.fixture
def linalg_calls(monkeypatch) -> collections.Counter:
    """Calls made through ``np.linalg.<name>`` from here on, counted by name."""
    counts = collections.Counter()
    for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "norm", "solve", "slogdet"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def random_spd(rng, n, lo=0.5, hi=2.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T
