"""Cumulant generating function models and the built-in catalog.

A model packages a cumulant generating function K (extended-real valued,
convex, K(0)=0), its effective domain, gradient, and the pieces the rest of
the toolkit needs: closed-form rate function where available, recession
values, and exponentially tilted samplers; its dimension, mean and plain
draws are read off these.  Multivariate entries are restricted to
full-space domains; bounded domains are one-dimensional.
Catalog formulas are plain code on float arrays, written for their closed
domain.  ``_catalog_model`` wraps them once: a 0-d input gives a Python float,
any other the array; K, K', K'' and P are +inf off the closure of ``domain``,
I off that of ``rate_dom`` and at +-inf, and on the closure the formula's own
value stands (+inf for K at an open edge, P's limit there, I at an atom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, NoSamplerError

_EPS = np.finfo(float).eps
_BIG = np.finfo(float).max
_BD0_TERMS = 8      # |e| < 0.1 in the bd0 series: 0.1^17 / 19 is below eps


@dataclass(frozen=True)
class DomainInterval:
    """Effective domain of a one-dimensional CGF, an interval around 0.

    Endpoints may be +-inf; closed flags are only meaningful for finite
    endpoints.  The interval must contain a neighbourhood of the origin.
    """

    lower: float
    upper: float
    lower_closed: bool = False
    upper_closed: bool = False

    def __post_init__(self):
        if not (self.lower < 0.0 < self.upper):
            raise ValueError("domain must contain a neighbourhood of 0")
        if self.lower_closed and not math.isfinite(self.lower):
            raise ValueError("closed endpoint must be finite")
        if self.upper_closed and not math.isfinite(self.upper):
            raise ValueError("closed endpoint must be finite")

    def contains(self, u: float) -> bool:
        if not self.lower <= u <= self.upper:
            return False
        if u == self.lower:
            return self.lower_closed
        if u == self.upper:
            return self.upper_closed
        return True

    def interior_contains(self, u: float) -> bool:
        return self.lower < u < self.upper


@dataclass(frozen=True)
class FullSpace:
    """Full-space domain R^d, d >= 2: the only multivariate domain supported.
    A d = 1 domain is a ``DomainInterval``, whose edges the d = 1 rules read."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 2:
            raise DomainError(f"a full-space domain needs dimension >= 2, got "
                              f"{self.dimension}; a d = 1 domain is a DomainInterval")


Domain = Union[DomainInterval, FullSpace]


@dataclass(frozen=True)
class CgfModel:
    """A CGF together with the analytic companions the toolkit consumes.

    A law states K, its domain, its gradient and its tilted sampler, and the
    rest is read off them, so nothing stated can contradict the law: the
    ``dimension`` is d of a ``FullSpace(d)`` domain and 1 of a
    ``DomainInterval``; the ``mean`` is K'(0), a float, or a tuple of floats
    in d > 1 (``mean_vec`` is it as an array); and the plain draws of
    ``draw`` and ``sample`` are the tilted ones at tilt 0, since the law is
    its own tilt by 0.

    Callables take scalars or numpy arrays for d=1, and arrays of shape
    (..., d) for d>1.  K returns +inf outside the domain; gradients return
    one-sided limit values on the closed hull boundary.  Equality and the
    hash leave the callables out, so the other fields, ``id`` above all, must
    tell two laws apart; two parses of one spec then share cached analyses.
    Such a cache holds law facts only, never a formula: the tilt caps,
    slope edges and the conjugate there of E_f (``kernel_rate._problem``),
    and of the discrete dual on a grid of cells the read-only grid, cell
    integrals, lengths and means, its caps, slope edges and first two
    moments (``kernel_rate._dual``).  Every evaluation calls the formulas of
    the model the caller passed, so a ``dataclasses.replace`` copy with
    other callables runs its own; a fact that needs a formula, a slope edge
    at a closed cap, is read from the model that first asked for it.

    For d=1, ``grad_range`` is the slope range (K'(lower+), K'(upper-)) read
    from the model with no search, by the weighted-cumulant rule of
    ``conjugate.slope_edges`` for one unit atom of mass 1
    (``conjugate.atomic_oracle``): +-inf at an open finite
    edge (a log-MGF is lower semicontinuous, so K and K' blow up there),
    ``cgf_grad(edge)`` at a closed edge, and the matching ``rate_dom`` edge
    at an infinite one.

    For d=1, ``cgf_int`` is the primitive P(u) = int_0^u K, with P(0) = 0
    and its limit at a finite domain edge.  Every kernel is piecewise
    linear, so ``kernel_rate`` reads the E_f-type integrals over a piece as
    brackets of P, K and K' at the piece ends.

    ``tilted_sampler(theta, rng, count, copies=1)`` takes an array of tilts,
    each in ``domain`` (a closed edge included, where K is finite and the
    tilted law exists), of shape B for d=1 or B + (d,) for d>1, and positive
    integer ``copies`` that broadcast with B.  Each draw is the sum of
    ``copies`` independent steps tilted by theta, drawn at once from that
    sum's law, the copies-fold convolution of the tilted law, whose CGF is
    copies K(theta + .) - copies K(theta); copies = 1 is one tilted step.
    All the draws come from one call, count apiece, so they have shape
    B + (count,) for d=1 and B + (count, d) for d>1, with B the broadcast
    shape; the draws for (theta[i], copies[i]) are those of a call with that
    pair alone, made in order of i on the same generator.

    ``tilt_draw_sum(theta, weights, rng, count, copies=1)`` takes tilts of
    shape (m,) for d=1 or (m, d) for d>1, weights of the same shape and
    copies that broadcast with (m,), and draws S = sum_j <weights_j, Y_j>,
    count times, with Y_j the sum of copies_j steps tilted by theta_j.  It
    returns the draws, shape (count,), and a bound on the rounding error of
    each, so that a caller testing S against a level can count an atom that
    lies exactly there.  By default it reduces ``tilt_draw``.  A law closed
    under linear combination, whose S has a law of the same family, sets
    ``tilted_sum_sampler`` with the same signature and return value and
    draws S at once: one draw per sample, whatever m.
    """

    id: str
    domain: Domain
    cgf: Callable = field(compare=False)
    cgf_grad: Callable = field(compare=False)
    cgf_hess: Optional[Callable] = field(default=None, compare=False)
    cgf_int: Optional[Callable] = field(default=None, compare=False)
    closed_rate: Optional[Callable] = field(default=None, compare=False)
    rate_grad: Optional[Callable] = field(default=None, compare=False)
    rate_hess: Optional[Callable] = field(default=None, compare=False)
    # Open interval on which rate_grad is usable (d=1 solvers need it).  At
    # an infinite domain edge its matching edge is the limit K'(+-inf), the
    # edge of the support; grad_range reads it there, and raises DomainError
    # for a d=1 model with an infinite edge and rate_dom=None.
    rate_dom: Optional[tuple] = None
    # (theta, rng, count, copies) -> draws; see above
    tilted_sampler: Optional[Callable] = field(default=None, compare=False)
    # (theta, weights, rng, count, copies) -> (draws, rounding bound); see above
    tilted_sum_sampler: Optional[Callable] = field(default=None, compare=False)
    minorant: tuple = (0.0, 0.0)                # (c1, c2): I(v) >= c1|v| - c2

    @cached_property
    def dimension(self) -> int:
        return self.domain.dimension if isinstance(self.domain, FullSpace) else 1

    @cached_property
    def mean(self) -> Union[float, tuple]:
        """K'(0), + 0.0 so that a signed zero reads 0.0."""
        if self.dimension == 1:
            return float(self.cgf_grad(0.0)) + 0.0
        return tuple((np.asarray(self.cgf_grad(np.zeros(self.dimension)), dtype=float)
                      + 0.0).tolist())

    @cached_property
    def mean_vec(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.mean, dtype=float))

    @cached_property
    def grad_range(self) -> tuple:
        """(K'(lower+), K'(upper-)) of a d=1 model; see the class docstring."""
        from .conjugate import atomic_oracle  # local: avoid cycle

        return atomic_oracle(self, self.domain, np.ones(1), np.ones(1)).grad_range

    # -- CGF surface ---------------------------------------------------

    def k(self, u):
        """K(u), +inf outside the effective domain."""
        self._check_dim(u)
        return self.cgf(u)

    def grad(self, u, one_sided: bool = False):
        """grad K at an interior point (or closed-boundary limit if one_sided)."""
        self._check_dim(u)
        if self.dimension == 1 and np.ndim(u) == 0 and not self.domain.interior_contains(u):
            if not (one_sided and self.domain.contains(u)):
                raise DomainError(f"u={float(u)} not interior to the CGF domain")
        return self.cgf_grad(u)

    def hessian(self, u):
        if self.cgf_hess is None:
            raise DomainError(f"model {self.id} has no Hessian")
        self._check_dim(u)
        return self.cgf_hess(u)

    def rate(self, v):
        """Rate function I(v) (Legendre transform of K), extended-real."""
        self._check_dim(v)
        if self.closed_rate is not None:
            return self.closed_rate(v)
        from .conjugate import atomic_oracle, legendre  # local: avoid cycle

        # K as the cumulant of one unit atom of mass 1, mu = delta_1
        oracle = atomic_oracle(self, self.domain, np.ones(1), np.ones(1))
        if self.dimension > 1 or np.ndim(v) == 0:
            return legendre(oracle, v).value
        arr = np.asarray(v, dtype=float)
        flat = [legendre(oracle, float(c)).value for c in arr.reshape(-1)]
        return np.asarray(flat).reshape(arr.shape)

    def recession(self, direction) -> float:
        """Support function of the domain at a unit direction: the jump price."""
        if self.dimension == 1:
            d = float(np.asarray(direction).reshape(()))
            if abs(abs(d) - 1.0) > 1e-12:
                raise DomainError("direction must be a unit vector")
            return self.domain.upper if d > 0 else -self.domain.lower
        vec = np.asarray(direction, dtype=float)
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise DomainError("direction must be a unit vector")
        return math.inf  # full-space domain

    # -- sampling ------------------------------------------------------

    def draw(self, rng: np.random.Generator, count: int):
        """Plain draws: the tilted draws at tilt 0."""
        return self.tilt_draw(0.0 if self.dimension == 1 else np.zeros(self.dimension),
                              rng, count)

    def tilt_draw(self, theta, rng: np.random.Generator, count: int, copies=1):
        """Draws of the sum of ``copies`` steps tilted by theta; see the class."""
        if self.tilted_sampler is None:
            raise NoSamplerError(f"model {self.id} has no tilted sampler")
        self._check_tilt(theta, copies)
        return self.tilted_sampler(theta, rng, count, copies)

    def tilt_draw_sum(self, theta, weights, rng: np.random.Generator, count: int,
                      copies=1):
        """Draws of sum_j <weights_j, Y_j> and their rounding bound; see the class."""
        if self.tilted_sum_sampler is not None:
            self._check_tilt(theta, copies)
            return self.tilted_sum_sampler(theta, weights, rng, count, copies)
        ys = self.tilt_draw(theta, rng, count, copies)       # (m, count) or (m, count, d)
        w = np.asarray(weights, dtype=float)
        sums = w @ ys if self.dimension == 1 else np.einsum("jcd,jd->c", ys, w)
        # rounding moves each sum by about eps sum_j |<w_j, Y_j>|, at most
        # eps sum |w| max |Y|
        return sums, _EPS * float(np.sum(np.abs(w))) * max(ys.max(), -ys.min())

    def sample(self, count: int, seed: int):
        return self.draw(np.random.default_rng(seed), count)

    def tilt_sample(self, theta, count: int, seed: int, copies=1):
        return self.tilt_draw(theta, np.random.default_rng(seed), count, copies)

    # -- helpers -------------------------------------------------------

    def _check_tilt(self, theta, copies):
        if self.dimension == 1:
            # the domain is an interval, so its extreme tilts decide them all
            for end in (np.min(theta), np.max(theta)):
                if not self.domain.contains(float(end)):
                    raise DomainError(f"tilt {float(end)} outside the CGF domain")
        if np.min(copies) < 1:
            raise ValueError("copies must be positive")

    def _check_dim(self, u):
        # d=1 callables are vectorised over points, so any shape is a batch.
        if self.dimension > 1 and np.shape(u)[-1:] != (self.dimension,):
            raise DomainError("dimension mismatch")


def _normal_sum(terms, sd, rng, count):
    """Draws of N(sum terms, sd^2) and the rounding bound of that formula: a
    normal law has no atoms, so nothing else needs a bound."""
    z = rng.standard_normal(count)
    err = _EPS * (float(np.sum(np.abs(terms))) + sd * float(np.max(np.abs(z))))
    return float(np.sum(terms)) + sd * z, err


def _by_runs(theta, copies, count, single, several):
    """Tilted draws, count per broadcast (theta, copies) pair, made in order of
    the pairs on one generator: each run of pairs with copies = 1 by
    ``single(t, size)``, the cheap one-step law, and each other run by
    ``several(t, c, size)``, with t and c columns of the run's tilts and
    copies and size = (run length, count)."""
    t, c = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(copies))
    shape, t, c = t.shape, t.reshape(-1, 1), c.reshape(-1, 1)
    one = c[:, 0] == 1
    cuts = [0, *(np.flatnonzero(one[1:] != one[:-1]) + 1), one.size]
    out = np.empty((one.size, count))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        size = (hi - lo, count)
        out[lo:hi] = single(t[lo:hi], size) if one[lo] else several(t[lo:hi], c[lo:hi], size)
    return out.reshape(shape + (count,))


def _bd0(x, d, far):
    """Loader's deviance bd0(x, x - d) = x log(x / (x - d)) - d from the
    difference d itself.  Its terms cancel to O(d^2) next to d = 0; there,
    with e = d / (2x - d), it is d e + 2x sum_{j>=1} e^(2j+1) / (2j+1)
    (Loader 2000), whose second term is at most |e| < 0.1 times the first.
    Elsewhere it is ``far``, the caller's closed form."""
    e = d / (2.0 * x - d)
    near = np.abs(e) < 0.1
    if not near.any():
        return far
    ee = e * e
    tail = ee / (2 * _BD0_TERMS + 1)
    for j in range(_BD0_TERMS - 1, 0, -1):
        tail = ee * (1.0 / (2 * j + 1) + tail)
    return np.where(near, d * e + 2.0 * x * e * tail, far)


def _catalog_model(**fields) -> CgfModel:
    """A ``CgfModel`` with its formulas wrapped as the module docstring says;
    wrapping here, not in the model, keeps ``dataclasses.replace`` from
    stacking wrappers."""

    def on_floats(formula, lo=-math.inf, hi=math.inf):
        # +inf off [lo, hi], compared at its finite edges only; a masked 0-d
        # input reaches the formula as one element, to run the array loops as
        # any other (``(1 - u) ** 1.5`` on a numpy scalar rounds differently)
        low, high = math.isfinite(lo), math.isfinite(hi)

        def wrapped(u):
            u = np.asarray(u, dtype=float)
            if low or high:
                x = np.atleast_1d(u)
                live = (x >= lo) & (x <= hi) if low and high else x >= lo if low else x <= hi
                with np.errstate(all="ignore"):
                    out = np.where(live, formula(x), np.inf)
                return float(out[0]) if u.ndim == 0 else out
            out = formula(u)
            return float(out) if u.ndim == 0 else out
        return wrapped

    dom = fields["domain"]
    k_edges = (dom.lower, dom.upper) if isinstance(dom, DomainInterval) else ()
    # I is +inf at +-inf too, so a rate_dom with a finite edge ends at +-max float
    lo, hi = fields.get("rate_dom") or (-math.inf, math.inf)
    rate_edges = (max(lo, -_BIG), min(hi, _BIG)) if math.isfinite(lo) or math.isfinite(hi) else ()
    edges = dict.fromkeys(("cgf", "cgf_grad", "cgf_hess", "cgf_int"), k_edges)
    edges.update(closed_rate=rate_edges, rate_grad=(), rate_hess=())
    for name, ends in edges.items():
        if fields.get(name) is not None:
            fields[name] = on_floats(fields[name], *ends)
    return CgfModel(**fields)


# ----------------------------------------------------------------------
# Catalog entries
# ----------------------------------------------------------------------

def gaussian(mu=0.0, sigma=1.0, cov=None) -> CgfModel:
    """Gaussian model; scalar (mu, sigma) or vector mu with covariance cov.
    A vector mu of length 1 gives the scalar law."""
    if cov is None and np.ndim(mu) == 0:
        m, s = float(mu), float(sigma)
        if s <= 0:
            raise ValueError("sigma must be positive")
        s2 = s * s

        def k(u):
            return m * u + 0.5 * s2 * u * u

        def kp(u):
            return m + s2 * u

        def kpp(u):
            return np.full_like(u, s2)

        def kint(u):
            return u * u * (0.5 * m + s2 * u / 6.0)

        def rate(v):
            return (v - m) ** 2 / (2.0 * s2)

        def rate_g(v):
            return (v - m) / s2

        def rate_h(v):
            return np.full_like(v, 1.0 / s2)

        def tilted(theta, rng, count, copies=1):
            # N(c (m + s^2 theta), c s^2); c = 1 multiplies by one exactly
            c = np.asarray(copies)
            mean = c * (m + s2 * np.asarray(theta, dtype=float))
            z = rng.standard_normal(mean.shape + (count,))
            z *= (np.sqrt(c) * s)[..., None]
            z += mean[..., None]
            return z

        def tilted_sum(theta, weights, rng, count, copies=1):
            # N(sum c w (m + s^2 theta), s^2 sum c w^2)
            c, w = np.asarray(copies), np.asarray(weights, dtype=float)
            terms = c * w * (m + s2 * np.asarray(theta, dtype=float))
            return _normal_sum(terms, s * math.sqrt(float(np.sum(c * w * w))), rng, count)

        c2 = max(k(1.0), k(-1.0), 0.0)
        return _catalog_model(
            id=f"gaussian:mu={m:g},sigma={s:g}",
            domain=DomainInterval(-math.inf, math.inf),
            cgf=k, cgf_grad=kp, cgf_hess=kpp, cgf_int=kint,
            closed_rate=rate, rate_grad=rate_g, rate_hess=rate_h,
            rate_dom=(-math.inf, math.inf),
            tilted_sampler=tilted, tilted_sum_sampler=tilted_sum,
            minorant=(1.0, c2),
        )

    mu_vec = np.atleast_1d(np.asarray(mu, dtype=float))
    d = mu_vec.size
    cov_m = np.asarray(cov, dtype=float) if cov is not None else np.eye(d) * float(sigma) ** 2
    if cov_m.shape != (d, d):
        raise ValueError("covariance shape mismatch")
    evals = np.linalg.eigvalsh(cov_m)
    if evals.min() <= 0:
        raise ValueError("covariance must be positive definite")
    if d == 1:
        return gaussian(float(mu_vec[0]), math.sqrt(float(cov_m[0, 0])))
    chol = np.linalg.cholesky(cov_m)
    prec = np.linalg.inv(cov_m)

    def k(u):
        return u @ mu_vec + 0.5 * np.einsum("...i,ij,...j->...", u, cov_m, u)

    def kp(u):
        return mu_vec + u @ cov_m

    def kpp(u):
        return np.broadcast_to(cov_m, np.shape(u)[:-1] + (d, d))

    def rate(v):
        c = v - mu_vec
        return 0.5 * np.einsum("...i,ij,...j->...", c, prec, c)

    def rate_g(v):
        return (v - mu_vec) @ prec

    def rate_h(v):
        return prec.copy()

    def tilted(theta, rng, count, copies=1):
        # c (mu + Sigma theta) + sqrt(c) L Z; c = 1 multiplies by one exactly
        c = np.asarray(copies)[..., None, None]
        mean = c * (mu_vec + np.asarray(theta, dtype=float) @ cov_m)[..., None, :]
        z = rng.standard_normal(mean.shape[:-2] + (count, d)) @ chol.T
        z *= np.sqrt(c)
        z += mean
        return z

    def tilted_sum(theta, weights, rng, count, copies=1):
        # N(sum c <w, mu + Sigma theta>, sum c |L^T w|^2)
        c, w = np.asarray(copies)[..., None], np.asarray(weights, dtype=float)
        terms = c * w * (mu_vec + np.asarray(theta, dtype=float) @ cov_m)
        return _normal_sum(terms, math.sqrt(float(np.sum(c * (w @ chol) ** 2))), rng, count)

    c2 = float(np.linalg.norm(mu_vec) + 0.5 * evals.max())
    return _catalog_model(
        id=f"gaussian:d={d},mu={mu_vec.tolist()},cov={cov_m.tolist()}",
        domain=FullSpace(d),
        cgf=k, cgf_grad=kp, cgf_hess=kpp,
        closed_rate=rate, rate_grad=rate_g, rate_hess=rate_h,
        tilted_sampler=tilted, tilted_sum_sampler=tilted_sum,
        minorant=(1.0, c2),
    )


def centered_exponential() -> CgfModel:
    """Unit-mean exponential shifted to mean zero: X = Y - 1, Y ~ Exp(1)."""

    def k(u):
        return -u - np.log1p(-u)

    def kp(u):
        return u / (1.0 - u)

    def kpp(u):
        return 1.0 / (1.0 - u) ** 2

    def kint(u):
        # -u^2/2 + (1 - u) log(1 - u) + u, with limit 1/2 at the edge u = 1
        return u - 0.5 * u * u + np.where(u < 1.0, (1.0 - u) * np.log1p(-u), 0.0)

    def rate(v):
        # bd0(1, 1 + v) = v - log1p(v)
        return _bd0(1.0, -v, v - np.log1p(v))

    def rate_g(v):
        return v / (1.0 + v)

    def rate_h(v):
        return 1.0 / (1.0 + v) ** 2

    def tilted(theta, rng, count, copies=1):
        # Exp(1) / (1 - theta) - 1 for one step, Gamma(c) / (1 - theta) - c for c
        return _by_runs(theta, copies, count,
                        lambda t, size: rng.standard_exponential(size) / (1.0 - t) - 1.0,
                        lambda t, c, size: rng.standard_gamma(c, size=size) / (1.0 - t) - c)

    # Supporting lines at u = +-1/2: c1 = 1/2, c2 = max K there.
    c2 = max(-0.5 - math.log(0.5), 0.5 - math.log(1.5))
    return _catalog_model(
        id="cexp",
        domain=DomainInterval(-math.inf, 1.0),
        cgf=k, cgf_grad=kp, cgf_hess=kpp, cgf_int=kint,
        closed_rate=rate, rate_grad=rate_g, rate_hess=rate_h,
        rate_dom=(-1.0, math.inf),
        tilted_sampler=tilted,
        minorant=(0.5, c2),
    )


def rademacher() -> CgfModel:
    """Symmetric +-1 variable: K(u) = log cosh u."""

    def k(u):
        a = np.abs(u)
        # log cosh u, overflow-safe
        return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)

    def kp(u):
        return np.tanh(u)

    def kpp(u):
        e = np.exp(-2.0 * np.abs(u))
        sech = 2.0 * np.sqrt(e) / (1.0 + e)
        return sech * sech

    def kint(u):
        # odd, since K is even; for u >= 0 it is
        # u^2/2 - u log 2 + Li2(-e^{-2u})/2 + pi^2/24, and Li2(z) = spence(1 - z)
        from scipy.special import spence

        a = np.abs(u)
        val = (a * (0.5 * a - math.log(2.0)) + 0.5 * spence(1.0 + np.exp(-2.0 * a))
               + math.pi ** 2 / 24.0)
        return np.sign(u) * val

    def rate(v):
        # ((1 + a) log(1 + a) + (1 - a) log(1 - a)) / 2 with a = |v|, exact
        # up to the edge a = 1, but its terms cancel to O(v^2) next to the
        # mean; there it is a atanh(a) + log1p(-a^2) / 2, whose terms cancel
        # only by a factor 2
        a = np.abs(v)
        near = a * np.arctanh(a) + 0.5 * np.log1p(-a * a)
        far = 0.5 * ((1.0 + a) * np.log1p(a) + np.where(a < 1.0, (1.0 - a) * np.log1p(-a), 0.0))
        return np.where(a < 0.5, near, far)

    def rate_g(v):
        return np.arctanh(v)

    def rate_h(v):
        return 1.0 / (1.0 - v * v)

    def tilted(theta, rng, count, copies=1):
        # a step is +1 with probability p_plus(theta), so c steps sum to
        # 2 Binomial(c, p_plus) - c
        def p_plus(t):
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(-2.0 * t))

        return _by_runs(theta, copies, count,
                        lambda t, size: 2.0 * (rng.random(size) < p_plus(t)) - 1.0,
                        lambda t, c, size: 2.0 * rng.binomial(c, p_plus(t), size=size) - c)

    c2 = float(k(1.0))  # supporting lines at u = +-1
    return _catalog_model(
        id="rademacher",
        domain=DomainInterval(-math.inf, math.inf),
        cgf=k, cgf_grad=kp, cgf_hess=kpp, cgf_int=kint,
        closed_rate=rate, rate_grad=rate_g, rate_hess=rate_h,
        rate_dom=(-1.0, 1.0),
        tilted_sampler=tilted,
        minorant=(1.0, c2),
    )


def centered_poisson(rate_param: float = 1.0) -> CgfModel:
    """Poisson(rate) shifted to mean zero."""
    r = float(rate_param)
    if r <= 0:
        raise ValueError("rate must be positive")

    def k(u):
        return r * (np.expm1(u) - u)

    def kp(u):
        return r * np.expm1(u)

    def kpp(u):
        return r * np.exp(u)

    def kint(u):
        return r * (np.expm1(u) - u - 0.5 * u * u)

    def rate_fn(v):
        # bd0(v + r, r) = (v + r) log1p(v / r) - v; r at the atom v = -r
        w = v + r
        return _bd0(w, v, np.where(w > 0.0, w * np.log1p(v / r), 0.0) - v)

    def rate_g(v):
        return np.log((v + r) / r)

    def rate_h(v):
        return 1.0 / (v + r)

    def tilted(theta, rng, count, copies=1):
        # Poisson(c r e^theta) - c r
        cr = np.asarray(copies)[..., None] * r
        lam = cr * np.exp(np.asarray(theta, dtype=float))[..., None]
        return rng.poisson(lam, size=lam.shape[:-1] + (count,)) - cr

    c2 = max(float(k(1.0)), float(k(-1.0)))
    return _catalog_model(
        id=f"poisson:rate={r:g}",
        domain=DomainInterval(-math.inf, math.inf),
        cgf=k, cgf_grad=kp, cgf_hess=kpp, cgf_int=kint,
        closed_rate=rate_fn, rate_grad=rate_g, rate_hess=rate_h,
        rate_dom=(-r, math.inf),
        tilted_sampler=tilted,
        minorant=(1.0, c2),
    )


def synthetic_boundary() -> CgfModel:
    """Analytic test CGF with a finite gradient at a closed domain endpoint.

    K(u) = u + (2/3)((1-u)^{3/2} - 1) on (-inf, 1]; K'(1) = 1 is finite, so
    the conjugate saturates at the boundary for arguments beyond 1.  No
    sampler: this entry exists to exercise boundary branches exactly.
    """

    def k(u):
        return u + (2.0 / 3.0) * ((1.0 - u) ** 1.5 - 1.0)

    def kp(u):
        return 1.0 - np.sqrt(1.0 - u)

    def kpp(u):
        return 0.5 / np.sqrt(1.0 - u)

    def kint(u):
        # u^2/2 - 2u/3 - (4/15)((1 - u)^{5/2} - 1); 1/10 at the edge u = 1
        return u * (0.5 * u - 2.0 / 3.0) - (4.0 / 15.0) * ((1.0 - u) ** 2.5 - 1.0)

    def rate(v):
        # v^2 (1 - v/3) for v <= 1, affine with slope 1 beyond; written in v,
        # not in 1 - v, so that nothing cancels next to the mean
        b = np.minimum(v, 1.0)
        return np.where(v <= 1.0, b * b * (1.0 - b / 3.0), v - 1.0 / 3.0)

    def rate_g(v):
        b = np.minimum(v, 1.0)
        return np.where(v <= 1.0, b * (2.0 - b), 1.0)

    def rate_h(v):
        w = 1.0 - np.minimum(v, 1.0)
        return np.where(v <= 1.0, 2.0 * w, 0.0)

    c2 = max(float(k(0.5)), float(k(-1.0)), 0.0)  # lines at u = 1/2 and u = -1
    return _catalog_model(
        id="synthetic-boundary",
        domain=DomainInterval(-math.inf, 1.0, upper_closed=True),
        cgf=k, cgf_grad=kp, cgf_hess=kpp, cgf_int=kint,
        closed_rate=rate, rate_grad=rate_g, rate_hess=rate_h,
        rate_dom=(-math.inf, math.inf),
        minorant=(0.5, c2),
    )


# ----------------------------------------------------------------------
# Registry and string specs
# ----------------------------------------------------------------------

MODEL_FACTORIES = {
    "gaussian": gaussian,
    "cexp": centered_exponential,
    "rademacher": rademacher,
    "poisson": centered_poisson,
    "synthetic-boundary": synthetic_boundary,
}

_MODEL_KEYS = {
    "gaussian": {"mu", "sigma"},
    "poisson": {"rate"},
}


def parse_model(spec: str) -> CgfModel:
    """Build a catalog model from a spec string like ``gaussian:mu=0,sigma=1``."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in MODEL_FACTORIES:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODEL_FACTORIES)}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed model parameter {item!r}")
            key = key.strip()
            allowed = _MODEL_KEYS.get(name, set())
            if key not in allowed:
                raise ValueError(f"unknown parameter {key!r} for model {name!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(f"non-numeric value for {key!r}: {val!r}") from None
    if name == "gaussian":
        return gaussian(mu=params.get("mu", 0.0), sigma=params.get("sigma", 1.0))
    if name == "poisson":
        return centered_poisson(rate_param=params.get("rate", 1.0))
    if params:
        raise ValueError(f"model {name!r} takes no parameters")
    return MODEL_FACTORIES[name]()
