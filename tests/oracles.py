"""Independent oracles that the tests check the library against.

- The ``4^n`` enumeration: ``enumerate_strategies`` lists every deterministic
  strategy one by one and ``behavior_of`` turns one into its behavior, where
  ``lhv`` enumerates only Alice's ``2^n`` strategies and picks Bob's best
  responses.
- The operator-form Born rule: ``behavior_of_model_trace`` and
  ``moment_matrix_of_model`` build probabilities and moment matrices from
  explicit 2x2 observables and the state vector, where ``qubit`` evaluates a
  closed form per term.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from nonlocality_wb.lhv import DeterministicStrategy, _check_capacity
from nonlocality_wb.npa import _check_level, basis_monomials
from nonlocality_wb.qubit import QubitModel
from nonlocality_wb.scenario import Behavior, Scenario, ValidationError


def enumerate_strategies(scenario: Scenario) -> Iterator[DeterministicStrategy]:
    """Yield all ``4^n`` deterministic strategies exactly once.

    Order is lexicographic in the concatenated outcome tuple
    ``(a(1), ..., a(n), b(1), ..., b(n))``.
    """
    _check_capacity(scenario)
    n = scenario.n_settings
    for a_code in range(1 << n):
        a = tuple((a_code >> (n - 1 - k)) & 1 for k in range(n))
        for b_code in range(1 << n):
            b = tuple((b_code >> (n - 1 - k)) & 1 for k in range(n))
            yield DeterministicStrategy(a, b)


def behavior_of(strategy: DeterministicStrategy, scenario: Scenario) -> Behavior:
    """The deterministic behavior ``p(ij|xy) = [i = a(x)][j = b(y)]``."""
    n = scenario.n_settings
    if len(strategy.a) != n:
        raise ValidationError(
            f"strategy covers {len(strategy.a)} settings, scenario has {n}"
        )
    p = np.zeros((n, n, 2, 2))
    for x in range(n):
        for y in range(n):
            p[x, y, strategy.a[x], strategy.b[y]] = 1.0
    return Behavior(scenario, p)


def observable(angle: float) -> np.ndarray:
    """X-Z plane reflection with Bloch direction at angle ``2 * angle``."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]])


def state_vector(theta: float) -> np.ndarray:
    """``cos(theta)|00> + sin(theta)|11>`` in the computational basis."""
    return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])


def behavior_of_model_trace(model: QubitModel) -> Behavior:
    """Born-rule behavior via the explicit 4x4 trace formula (oracle path)."""
    scenario = Scenario(model.n_settings)
    n = model.n_settings
    psi = state_vector(model.theta)
    rho = np.outer(psi, psi)
    eye = np.eye(2)
    p = np.empty((n, n, 2, 2))
    for x in range(n):
        ax = observable(model.alpha[x])
        for y in range(n):
            by = observable(model.beta[y])
            for i in (0, 1):
                pa = (eye + (-1) ** i * ax) / 2.0
                for j in (0, 1):
                    pb = (eye + (-1) ** j * by) / 2.0
                    p[x, y, i, j] = np.trace(np.kron(pa, pb) @ rho)
    p = np.clip(p, 0.0, 1.0)
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Behavior(scenario, p)


def moment_matrix_of_model(model: QubitModel, level: int) -> np.ndarray:
    """Gram moment matrix of an explicit qubit model over the level basis.

    Row ``u`` is the vector ``op(u) |psi>`` with ``op`` the product of
    outcome-0 projectors named by the word, so the matrix is PSD by
    construction and matches the abstract cell identification.
    """
    _check_level(level)
    n = model.n_settings
    basis = basis_monomials(n, level)
    eye = np.eye(2)
    proj_a = [(eye + observable(a)) / 2.0 for a in model.alpha]
    proj_b = [(eye + observable(b)) / 2.0 for b in model.beta]
    psi = state_vector(model.theta)
    vectors = np.empty((len(basis), 4))
    for idx, (alice, bob) in enumerate(basis):
        op_a = eye
        for s in alice:
            op_a = op_a @ proj_a[s - 1]
        op_b = eye
        for s in bob:
            op_b = op_b @ proj_b[s - 1]
        vectors[idx] = np.kron(op_a, op_b) @ psi
    return vectors @ vectors.T
