"""The Green's-function kernels of paper Table 3 plus a few standard extras.

Paper Table 3:

==========  ==========================================================  ==================
Kernel      Equation                                                    Constants
==========  ==========================================================  ==================
Laplace 2D  ``f(x, y) = -ln(eps + dist(x, y))``                         ``eps = 1e-9``
Yukawa      ``f(x, y) = exp(-alpha * (theta + d)) / (theta + d)``       ``alpha=1, theta=1e-9``
Matern      ``f(x, y) = sigma^2/(2^(rho-1) Gamma(rho)) (d/mu)^rho        ``sigma=1, mu=0.03,
            K_rho(d/mu)``  (``sigma^2`` at d = 0)                        rho=0.5``
==========  ==========================================================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.kernels.base import RadialKernel

__all__ = [
    "Laplace2D",
    "Yukawa",
    "Matern",
    "Gaussian",
    "Exponential",
    "InverseDistance",
    "kernel_by_name",
    "PAPER_KERNELS",
]


@dataclass(frozen=True)
class Laplace2D(RadialKernel):
    """2D Laplace (single-layer) Green's function ``-ln(eps + r)``."""

    eps: float = 1e-9
    name: str = "laplace2d"

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        out = np.add(self.eps, np.asarray(dist, dtype=np.float64))
        np.log(out, out=out)
        return np.negative(out, out=out)


@dataclass(frozen=True)
class Yukawa(RadialKernel):
    """Yukawa (screened Coulomb) kernel ``exp(-alpha (theta + r)) / (theta + r)``."""

    alpha: float = 1.0
    theta: float = 1e-9
    name: str = "yukawa"

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        r = np.add(self.theta, np.asarray(dist, dtype=np.float64))
        out = np.multiply(-self.alpha, r)
        np.exp(out, out=out)
        return np.divide(out, r, out=out)


@dataclass(frozen=True)
class Matern(RadialKernel):
    """Matern covariance kernel used in geostatistics.

    ``f(r) = sigma^2 / (2^(rho-1) Gamma(rho)) * (r / mu)^rho * K_rho(r / mu)``
    and ``f(0) = sigma^2``.  With ``rho = 0.5`` this reduces to the
    exponential covariance ``sigma^2 exp(-r / mu)``.
    """

    sigma: float = 1.0
    mu: float = 0.03
    rho: float = 0.5
    name: str = "matern"

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        import scipy.special  # imported here: no other kernel needs it

        out = np.divide(np.asarray(dist, dtype=np.float64), self.mu)
        # Below this threshold x^rho * K_rho(x) is numerically unstable (K_rho
        # overflows); the analytic limit for x -> 0 is sigma^2, set last.
        small = out <= 1e-10
        coef = self.sigma**2 / (2.0 ** (self.rho - 1.0) * scipy.special.gamma(self.rho))
        k = scipy.special.kv(self.rho, out)
        np.power(out, self.rho, out=out)
        np.multiply(coef, out, out=out)
        with np.errstate(invalid="ignore"):
            np.multiply(out, k, out=out)
        out[small] = self.sigma**2
        return out


@dataclass(frozen=True)
class Gaussian(RadialKernel):
    """Squared-exponential kernel ``sigma^2 exp(-r^2 / (2 l^2))``."""

    sigma: float = 1.0
    length_scale: float = 0.1
    name: str = "gaussian"

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        out = np.divide(np.asarray(dist, dtype=np.float64), self.length_scale)
        np.square(out, out=out)
        np.multiply(-0.5, out, out=out)
        np.exp(out, out=out)
        return np.multiply(self.sigma**2, out, out=out)


@dataclass(frozen=True)
class Exponential(RadialKernel):
    """Exponential covariance ``sigma^2 exp(-r / l)`` (Matern with rho = 1/2)."""

    sigma: float = 1.0
    length_scale: float = 0.1
    name: str = "exponential"

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        out = np.negative(np.asarray(dist, dtype=np.float64))
        np.divide(out, self.length_scale, out=out)
        np.exp(out, out=out)
        return np.multiply(self.sigma**2, out, out=out)


@dataclass(frozen=True)
class InverseDistance(RadialKernel):
    """3D Laplace (Coulomb) kernel ``1 / (eps + r)``."""

    eps: float = 1e-9
    name: str = "inverse_distance"

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        out = np.add(self.eps, np.asarray(dist, dtype=np.float64))
        return np.divide(1.0, out, out=out)


#: The three kernels evaluated in the paper, with the paper's constants.
PAPER_KERNELS: Dict[str, RadialKernel] = {
    "laplace2d": Laplace2D(eps=1e-9),
    "yukawa": Yukawa(alpha=1.0, theta=1e-9),
    "matern": Matern(sigma=1.0, mu=0.03, rho=0.5),
}


def kernel_by_name(name: str, **params: float) -> RadialKernel:
    """Construct a kernel by name (``laplace2d``, ``yukawa``, ``matern``, ...).

    Keyword arguments override the default constants.
    """
    registry = {
        "laplace2d": Laplace2D,
        "laplace": Laplace2D,
        "yukawa": Yukawa,
        "matern": Matern,
        "gaussian": Gaussian,
        "exponential": Exponential,
        "inverse_distance": InverseDistance,
    }
    key = name.lower()
    if key not in registry:
        raise KeyError(f"unknown kernel {name!r}; known: {sorted(set(registry))}")
    return registry[key](**params)
