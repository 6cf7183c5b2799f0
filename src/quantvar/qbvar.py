"""Quantile VAR with common factors, estimated by Gibbs sampling.

Model for quantile level q in (0, 1):

    y_t = Phi x_t + Lam f_t + v_t,   v_it ~ AL(0, sigma_i, q) independent,

where x_t = (1, y_{t-1}', ..., y_{t-p}')'. The asymmetric-Laplace errors are
handled through their exponential location-scale mixture

    y_it = Phi_i x_t + lam_i' f_t + theta z_it + sqrt(tau2 sigma_i z_it) u_it,

with z_it ~ Exp(1), u_it ~ N(0,1), theta = (1-2q)/(q(1-q)) and
tau2 = 2/(q(1-q)), which makes every full conditional a standard draw.
Coefficient rows carry a horseshoe prior with one global scale per model,
beta_ij ~ N(0, psi_ij^2 kappa^2) with half-Cauchy(0, 1) scales psi_ij and
kappa; each scale has an inverse-gamma auxiliary (nu_ij, xi) that makes its
conditional inverse gamma (Makalic & Schmidt 2016). Factor loadings have
unit-variance normal priors and factors a standard normal prior. Given the
other blocks, the coefficient rows, the loading rows and the factor vectors
f_t are each independent, so every Gibbs step is one draw batched over rows.
The coefficient rows are drawn by perturb-then-solve
(:func:`draw_weighted_regression`), one solve and no factorisation; the
r x r loading and factor blocks use
:func:`quantvar.dist.draw_from_precision_system`. A sweep keeps its
per-observation arrays (mixture variables, weights, factor target,
residuals) series-major, (n, T), and reads the design's contiguous
transposes ``YT`` and ``XT``, so every sum over t runs along contiguous
memory. :func:`run_gibbs` drives a chain of this model and of the Gaussian
benchmark in ``bvar``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LagDesign
from .dist import (
    draw_from_precision_system,
    draw_gig_half,
    draw_inverse_gamma,
    update_horseshoe,
)

_Z_FLOOR = 1e-12


@dataclass(frozen=True)
class QuantileLevel:
    """A quantile level with its mixture constants."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {self.q}")

    @property
    def theta(self) -> float:
        return (1.0 - 2.0 * self.q) / (self.q * (1.0 - self.q))

    @property
    def tau2(self) -> float:
        return 2.0 / (self.q * (1.0 - self.q))


@dataclass(frozen=True)
class McmcSchedule:
    iterations: int = 3000
    burn_in: int = 1000
    thin: int = 5

    def __post_init__(self):
        if self.burn_in < 0 or self.burn_in >= self.iterations:
            raise ValueError("burn-in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thinning interval must be >= 1")
        if self.n_draws < 1:
            raise ValueError("schedule retains no draws")

    @property
    def n_draws(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class ModelConfig:
    """Lag order, factor count (may be zero), schedule and scale prior of a model."""

    p: int
    r: int
    schedule: McmcSchedule = field(default_factory=McmcSchedule)
    a_sigma: float = 3.0
    b_sigma: float = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("lag order must be >= 1")
        if self.r < 0:
            raise ValueError("factor count must be >= 0")
        if self.a_sigma <= 0 or self.b_sigma <= 0:
            raise ValueError("inverse-gamma hyperparameters must be positive")


@dataclass(frozen=True)
class QbvarConfig(ModelConfig):
    """A model configuration plus the quantile level it is fitted at."""

    quantile: float = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        QuantileLevel(self.quantile)  # validates the range

    @property
    def level(self) -> QuantileLevel:
        return QuantileLevel(self.quantile)


@dataclass
class QbvarState:
    """Current values of every block updated by the sampler."""

    Phi: np.ndarray  # (n, k) coefficient rows, intercept first
    Lam: np.ndarray  # (n, r) factor loadings
    F: np.ndarray  # (T, r) factors
    Z: np.ndarray  # (n, T) mixture variables, series-major
    sigma: np.ndarray  # (n,) scales
    psi: np.ndarray  # (n, k) horseshoe local scales
    kappa: float  # horseshoe global scale
    nu: np.ndarray  # (n, k) auxiliaries of the local scales
    xi: float  # auxiliary of the global scale


def weighted_system(X, y, weights, prior_prec_diag):
    """Precision and linear term of a heteroskedastic Bayes regression.

    Returns (P, rhs) with P = X' W X + diag(prior_prec_diag) and
    rhs = X' W y, so the conditional is N(P^-1 rhs, P^-1). X is (T, k).
    Batched over series, which are stored series-major: y and weights
    (n, T) with prior_prec_diag (n, k) give the n systems of series i,
    P (n, k, k) and rhs (n, k); (T,) and (k,) give one. The weighted
    product X' w_i is formed from each series' contiguous weights, so
    P = (X' W) X and rhs = (X' W) y.

    Weights with one dimension fewer than y, (n,) (or a scalar for one
    system), are constant along each series, w_ti = w_i, as in the Gaussian
    model. Then X' W X = (X'X) w_i and X' W y = (y X) w_i: one k x k product
    serves all n systems, and no weighted (n, k, T) copy of X is built.
    """
    w = np.asarray(weights)
    y = np.asarray(y)
    if w.ndim < y.ndim:
        P = (X.T @ X) * w[..., None, None]
        rhs = (y @ X) * w[..., None]
    else:
        XtW = X.T * w[..., None, :]  # (k, T) or (n, k, T)
        P = XtW @ X
        rhs = (XtW @ y[..., None])[..., 0]
    diagonal = np.einsum("...ii->...i", P)  # a writable view, cheaper than fancy indexing
    diagonal += prior_prec_diag
    return P, rhs


def draw_weighted_regression(X, y, weights, prior_prec_diag, rng):
    """Draw beta ~ N(P^-1 rhs, P^-1) for the system of :func:`weighted_system`.

    Perturb-then-solve (Papandreou & Yuille 2010; Bhattacharya, Chakraborty
    & Mallick 2016): every observation gets u / sqrt(w) added, u ~ N(0, 1),
    and the linear term gets sqrt(prior) v, v ~ N(0, 1). The solution
    beta = P^-1 (X' W (y + u / sqrt(w)) + sqrt(prior) v) then has mean
    P^-1 rhs and covariance P^-1 (X' W X + diag(prior)) P^-1 = P^-1, from
    one solve with one right-hand side and no factorisation. Shapes and
    batching are those of :func:`weighted_system`, in both weight forms.
    The normals are taken from ``rng`` as u, with y's shape (n T of them
    when batched), then v, with the prior's shape (n k).

    A weight or prior precision that is not finite and positive makes the
    system improper; it raises LinAlgError, as a failed factorisation would.
    """
    w = np.asarray(weights, dtype=float)
    prior = np.asarray(prior_prec_diag, dtype=float)
    for a in (w, prior):
        if not (0.0 < a.min() and a.max() < np.inf):  # False on a NaN member too
            raise np.linalg.LinAlgError("weights and prior precisions must be finite and positive")
    y = np.asarray(y, dtype=float)
    y_star = rng.standard_normal(y.shape)
    root_w = np.sqrt(w)
    y_star /= root_w if w.ndim == y.ndim else root_w[..., None]
    y_star += y
    P, rhs = weighted_system(X, y_star, w, prior)
    v = rng.standard_normal(prior.shape)
    v *= np.sqrt(prior)
    rhs += v
    return np.linalg.solve(P, rhs[..., None])[..., 0]


def step_coefficients(design, state, theta, W, rng) -> None:
    """Draw all coefficient rows from their normal full conditionals.

    W holds the observation weights 1/(tau2 sigma_i z_it), (n, T), or the
    Gaussian model's per-series weights 1/sigma_i, (n,) (see
    :func:`weighted_system`). The rows are independent given the other
    blocks, so they are drawn in one batched perturb-then-solve call
    (:func:`draw_weighted_regression`).
    """
    Ytil = design.YT - theta * state.Z
    if state.Lam.shape[1]:
        Ytil -= state.Lam @ state.F.T
    prior_prec = 1.0 / (state.psi**2 * state.kappa**2)
    state.Phi[:] = draw_weighted_regression(design.X, Ytil, W, prior_prec, rng)


def step_loadings(state, W, R, rng) -> None:
    """Draw all loading rows in one batched call; prior is N(0, I) on every row.

    R is the target of the factor part, Y - X Phi' - theta Z, (n, T); W is
    as in :func:`step_coefficients`.
    """
    r = state.Lam.shape[1]
    if r == 0:
        return
    P, rhs = weighted_system(state.F, R, W, np.ones(r))
    state.Lam[:], _ = draw_from_precision_system(P, rhs, rng)


def factor_precision(Lam, W, R):
    """Batched precision systems (P (T, r, r), rhs (T, r)) of the factors.

    Each f_t is N(P_t^-1 rhs_t, P_t^-1), combining the loadings weighted by
    W = 1/(tau2 sigma_i z_it), (n, T), with the standard-normal prior; R is
    Y - X Phi' - theta Z, (n, T). Weights constant along each series, W (n,),
    give one precision P (r, r) shared by every period, which
    :func:`quantvar.dist.draw_from_precision_system` broadcasts over rhs.
    """
    P = np.einsum("ia,i...,ib->...ab", Lam, W, Lam)
    diagonal = np.einsum("...ii->...i", P)
    diagonal += 1.0
    WR = (W if W.ndim == R.ndim else W[:, None]) * R
    rhs = np.einsum("ia,it->ta", Lam, WR)
    return P, rhs


def step_factors(state, W, R, rng) -> None:
    """Draw all factor vectors jointly across t (batched r x r systems)."""
    if state.Lam.shape[1] == 0:
        return
    P, rhs = factor_precision(state.Lam, W, R)
    state.F, _ = draw_from_precision_system(P, rhs, rng)


def step_latent(state, E, theta, tau2, rng) -> None:
    """Draw mixture variables z_it ~ GIG(1/2, e^2/(tau2 s), theta^2/(tau2 s) + 2).

    E holds the regression residuals Y - X Phi' - F Lam', (n, T).
    """
    s = (tau2 * state.sigma)[:, None]
    a = E * E
    a /= s
    z = draw_gig_half(a, theta**2 / s + 2.0, rng)
    state.Z = np.maximum(z, _Z_FLOOR, out=z)


def step_scales(state, E, theta, tau2, a_sigma, b_sigma, rng) -> None:
    """Draw sigma_i ~ IG(a + T/2, b + sum (e - theta z)^2 / (2 tau2 z)).

    E holds the regression residuals, as in :func:`step_latent`. Only the
    Gaussian part of the mixture involves sigma (the exponential
    mixing law is parameter-free), so the likelihood adds T/2 to the shape
    and the shift-adjusted squared residuals to the scale. Expanding the
    square gives e^2/(2 tau2 z) - e theta/tau2 + theta^2 z/(2 tau2); the
    cross term keeps the scale draw centered when theta != 0, which is what
    anchors intercepts away from the median.
    """
    T = E.shape[1]
    adj = theta * state.Z
    np.subtract(E, adj, out=adj)
    adj *= adj
    adj /= 2.0 * tau2 * state.Z
    scale = b_sigma + np.sum(adj, axis=1)
    state.sigma[:] = draw_inverse_gamma(a_sigma + 0.5 * T, scale, rng)


def step_shrinkage(state, rng) -> None:
    """Draw the horseshoe scales and their auxiliaries over all coefficients at once.

    The global scale is shared by the whole coefficient matrix, so the
    flattened vector goes through a single update.
    """
    psi, nu, state.kappa, state.xi = update_horseshoe(
        state.Phi.ravel(), state.nu, state.kappa, state.xi, rng
    )
    state.psi = psi.reshape(state.psi.shape)
    state.nu = nu.reshape(state.psi.shape)


def init_state(design: LagDesign, config: ModelConfig) -> QbvarState:
    """Deterministic starting point: ridge coefficients, unit everything else."""
    Y, X = design.Y, design.X
    T, n = Y.shape
    k = X.shape[1]
    XtX = X.T @ X
    XtX[np.diag_indices_from(XtX)] += 1e-4
    Phi = np.linalg.solve(XtX, X.T @ Y).T
    E = Y - X @ Phi.T
    sigma = np.maximum(E.var(axis=0), 1e-8)
    return QbvarState(
        Phi=Phi,
        Lam=np.zeros((n, config.r)),
        F=np.zeros((T, config.r)),
        Z=np.ones((n, T)),
        sigma=sigma,
        psi=np.ones((n, k)),
        kappa=1.0,
        nu=np.ones((n, k)),
        xi=1.0,
    )


@dataclass
class ChainDiagnostics:
    """Per-retained-draw traces used by convergence checks."""

    residual_rms: np.ndarray  # (S,) rms of residuals at each retained draw
    kappa_trace: np.ndarray  # (S,) horseshoe global scale
    phi_first_half_mean: np.ndarray  # (n, k) mean over first half of draws
    phi_second_half_mean: np.ndarray  # (n, k) mean over second half


@dataclass
class PosteriorDrawSet:
    """Retained posterior draws of everything the forecaster needs."""

    kind: str  # "qbvar" or "bvar"
    quantile: float  # NaN for the Gaussian model
    p: int
    Phi: np.ndarray  # (S, n, k)
    Lam: np.ndarray  # (S, n, r)
    sigma: np.ndarray  # (S, n)

    @property
    def n_draws(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_factors(self) -> int:
        return self.Lam.shape[2]


def run_gibbs(
    design: LagDesign, config: ModelConfig, sweep, kind: str, quantile: float
) -> tuple[PosteriorDrawSet, ChainDiagnostics]:
    """Run ``sweep`` on one chain and return its thinned post-burn-in draws.

    ``sweep(state)`` makes one Gibbs sweep in place and returns the residuals
    Y - X Phi' - F Lam' it computed, which give the residual rms of a
    retained draw. ``kind`` and ``quantile`` label the draw set.
    """
    # the quantile and Gaussian sweeps stay two closures, each calling the
    # steps bound in its own module: the benchmark's step_ms is the fastest
    # gap between two quantvar.qbvar.step_coefficients calls, and at
    # (T, n, p, r) = (120, 3, 2, 1) on a 2-core Xeon VM the fastest Gaussian
    # sweep took 123 us against 177 us for a quantile sweep, so one shared
    # sweep would cut step_ms by 30 % without making anything faster
    sched = config.schedule
    state = init_state(design, config)
    S = sched.n_draws
    T, n = design.Y.shape
    k = design.X.shape[1]
    Phi_draws = np.empty((S, n, k))
    Lam_draws = np.empty((S, n, config.r))
    sigma_draws = np.empty((S, n))
    rms = np.empty(S)
    kappa_trace = np.empty(S)
    s = 0
    for it in range(sched.iterations):
        E = sweep(state)
        if it >= sched.burn_in and (it - sched.burn_in) % sched.thin == 0 and s < S:
            Phi_draws[s] = state.Phi
            Lam_draws[s] = state.Lam
            sigma_draws[s] = state.sigma
            rms[s] = float(np.sqrt(np.mean(E**2)))
            kappa_trace[s] = state.kappa
            s += 1
    half = S // 2
    diag = ChainDiagnostics(
        residual_rms=rms,
        kappa_trace=kappa_trace,
        phi_first_half_mean=Phi_draws[:half].mean(axis=0),
        phi_second_half_mean=Phi_draws[half:].mean(axis=0),
    )
    draws = PosteriorDrawSet(
        kind=kind,
        quantile=quantile,
        p=config.p,
        Phi=Phi_draws,
        Lam=Lam_draws,
        sigma=sigma_draws,
    )
    return draws, diag


def run_chain(
    design: LagDesign, config: QbvarConfig, rng: np.random.Generator
) -> tuple[PosteriorDrawSet, ChainDiagnostics]:
    """Run the six-step Gibbs sampler and return thinned post-burn-in draws.

    Sweep order per iteration: coefficients, loadings, factors, mixture
    variables, scales, shrinkage. The weights, the factor target and the
    residuals are computed once per sweep and passed to the steps that
    read them.
    """
    theta, tau2 = config.level.theta, config.level.tau2

    def sweep(state):
        # terms shared by the steps, each built once: W until sigma and Z
        # move (latent and scale steps), Y - X Phi' once Phi is drawn, and
        # the residuals E once the factors are drawn
        W = 1.0 / (tau2 * state.sigma[:, None] * state.Z)
        step_coefficients(design, state, theta, W, rng)
        D = design.YT - state.Phi @ design.XT
        R = D - theta * state.Z
        step_loadings(state, W, R, rng)
        step_factors(state, W, R, rng)
        E = D - state.Lam @ state.F.T if config.r else D
        step_latent(state, E, theta, tau2, rng)
        step_scales(state, E, theta, tau2, config.a_sigma, config.b_sigma, rng)
        step_shrinkage(state, rng)
        return E

    return run_gibbs(design, config, sweep, "qbvar", config.quantile)
