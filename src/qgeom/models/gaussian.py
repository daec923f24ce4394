"""Gaussian-state family: width sigma(l1, l2) and center mu(l1, l2).

The state is the ground state of H = p^2/2 + (q - mu)^2 / (2 sigma^4), i.e.
psi ~ exp(-(q - mu)^2 / (2 sigma^2)), which realizes the two-parameter
Gaussian wave function with arbitrary functional dependence. Derivatives of
sigma and mu may be supplied analytically; otherwise central differences at
h = 1e-5 * max(|lambda|, 1) are used.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import DomainError
from ..fock import quadratics  # noqa: F401  (perfbench instruments it here)
from .base import Model, NormalModeData, ParamPoint, aval

Func2 = Callable[[float, float], float]

_FD_REL = 1e-5


class GaussianModel(Model):
    """Two-parameter Gaussian family; closed forms cover the ground state."""

    name = "gaussian"
    dof = 1

    _closed = {
        "energy": "_cf_energy",
        "metric": "_cf_metric",
        "berry": "_cf_berry",
        "metric_det": "_cf_det",
        "ricci": "_cf_ricci",
        "scalar:param": "_cf_scalar",
        "phase_metric": "_cf_phase_metric",
    }

    def __init__(self, sigma: Func2, mu: Func2,
                 dsigma: Sequence[Func2] | None = None,
                 dmu: Sequence[Func2] | None = None,
                 param_names: tuple[str, str] = ("l1", "l2")):
        if len(param_names) != 2:
            raise ValueError("the Gaussian family uses exactly two parameters")
        self.param_names = tuple(param_names)
        self._sigma = sigma
        self._mu = mu
        self._dsigma = tuple(dsigma) if dsigma is not None else None
        self._dmu = tuple(dmu) if dmu is not None else None

    def validate(self, point):
        s = self._sigma(*point.values)
        if not (math.isfinite(s) and s > 0):
            raise DomainError(f"sigma(lambda) must be positive, got {s}")
        try:  # the Hamiltonian carries sigma^-4 and the deformations sigma^-5
            s ** 5 * s ** -5
        except OverflowError:
            raise DomainError(f"sigma(lambda) = {s:.3e} puts sigma^5 or sigma^-5 "
                              "out of floating-point range") from None
        if not math.isfinite(self._mu(*point.values)):
            raise DomainError("mu(lambda) must be finite")

    def sigma_mu(self, point: ParamPoint) -> tuple[float, float]:
        return self._sigma(*point.values), self._mu(*point.values)

    def _grad(self, f: Func2, point: ParamPoint) -> np.ndarray:
        out = np.empty(2)
        for i in range(2):
            h = _FD_REL * max(abs(point.values[i]), 1.0)
            out[i] = (f(*point.shifted(i, +h).values)
                      - f(*point.shifted(i, -h).values)) / (2 * h)
        return out

    def gradients(self, point: ParamPoint) -> tuple[np.ndarray, np.ndarray]:
        """(d sigma/d lambda_i, d mu/d lambda_i), analytic when supplied."""
        if self._dsigma is not None:
            ds = np.array([d(*point.values) for d in self._dsigma])
        else:
            ds = self._grad(self._sigma, point)
        if self._dmu is not None:
            dm = np.array([d(*point.values) for d in self._dmu])
        else:
            dm = self._grad(self._mu, point)
        return ds, dm

    def frequency(self, point: ParamPoint) -> float:
        return 1.0 / self._sigma(*point.values) ** 2

    def normal_modes(self, point):
        return NormalModeData((self.frequency(point),))

    def quadratic_form(self, point):
        # p^2/2 + (q - mu)^2 / (2 sigma^4)
        s, mu = self.sigma_mu(point)
        w2 = 1.0 / s**4
        return np.diag([w2, 1.0]), np.array([-mu * w2, 0.0]), 0.5 * mu * mu * w2

    def form_derivatives(self, point):
        s, mu = self.sigma_mu(point)
        ds, dm = self.gradients(point)
        w2 = 1.0 / s**4
        out = []
        for dsi, dmi in zip(ds, dm):
            dw2 = -4.0 * dsi * w2 / s  # d(sigma^-4)/d lambda_i
            out.append((np.diag([dw2, 0.0]), np.array([-(dmi * w2 + mu * dw2), 0.0]),
                        mu * dmi * w2 + 0.5 * mu * mu * dw2))
        return out

    # -- closed forms (ground state) -------------------------------------

    def _require_ground(self, qn):
        if qn != (0,):
            raise ValueError("Gaussian closed forms cover the ground state only")

    def _cf_energy(self, point, qn):
        return self.frequency(point) * aval(qn[0])

    def _cf_metric(self, point, qn):
        self._require_ground(qn)
        s, _ = self.sigma_mu(point)
        ds, dm = self.gradients(point)
        g = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                g[i, j] = (ds[i] * ds[j] + dm[i] * dm[j]) / (2 * s * s)
        return g

    def _cf_berry(self, point, qn):
        self._require_ground(qn)
        return np.zeros((2, 2))  # real wave function: no Berry part

    def _cf_det(self, point, qn):
        self._require_ground(qn)
        s, _ = self.sigma_mu(point)
        ds, dm = self.gradients(point)
        return (ds[0] * dm[1] - ds[1] * dm[0]) ** 2 / (4 * s**4)

    def _cf_ricci(self, point, qn):
        # 2D Einstein relation with R = -4: R_ij = -2 g_ij
        return -2.0 * self._cf_metric(point, qn)

    def _cf_scalar(self, point, qn):
        self._require_ground(qn)
        return -4.0

    def _cf_phase_metric(self, point, qn):
        w = self.frequency(point)
        return aval(qn[0]) * np.array([[w, 0.0], [0.0, 1.0 / w]])


def default_gaussian() -> GaussianModel:
    """sigma = exp(l1), mu = l2: the simplest curved representative."""
    return GaussianModel(
        sigma=lambda l1, l2: math.exp(l1),
        mu=lambda l1, l2: l2,
        dsigma=(lambda l1, l2: math.exp(l1), lambda l1, l2: 0.0),
        dmu=(lambda l1, l2: 0.0, lambda l1, l2: 1.0),
    )


def oscillator_slice_gaussian() -> GaussianModel:
    """sigma = X^(-1/4), mu = W/X over (W, X): the linear-term oscillator slice."""
    return GaussianModel(
        sigma=lambda W, X: X ** -0.25,
        mu=lambda W, X: W / X,
        dsigma=(lambda W, X: 0.0, lambda W, X: -0.25 * X ** -1.25),
        dmu=(lambda W, X: 1.0 / X, lambda W, X: -W / (X * X)),
        param_names=("W", "X"),
    )
