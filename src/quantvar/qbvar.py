"""Quantile VAR with common factors, estimated by Gibbs sampling.

Model for quantile level q in (0, 1):

    y_t = Phi x_t + Lam f_t + v_t,   v_it ~ AL(0, sigma_i, q) independent,

where x_t = (1, y_{t-1}', ..., y_{t-p}')'. The asymmetric-Laplace errors are
handled through their exponential location-scale mixture

    y_it = Phi_i x_t + lam_i' f_t + theta z_it + sqrt(tau2 sigma_i z_it) u_it,

with z_it exponential of mean sigma_i, u_it ~ N(0,1),
theta = (1-2q)/(q(1-q)) and tau2 = 2/(q(1-q)) (Kozumi & Kobayashi 2011),
which makes every full conditional a standard draw. With the scale in the
mixing law as well as in the noise, the q-quantile of v_it is zero at every
sigma_i, so the fitted plane is the q-quantile at any scale of the data.
Coefficient rows carry a horseshoe prior with one global scale per model,
beta_ij ~ N(0, psi_ij^2 kappa^2) with half-Cauchy(0, 1) scales psi_ij and
kappa; each scale has an inverse-gamma auxiliary (nu_ij, xi) that makes its
conditional inverse gamma (Makalic & Schmidt 2016). Factor loadings have
unit-variance normal priors and factors a standard normal prior. Given the
other blocks, the coefficient rows, the loading rows and the factor vectors
f_t are each independent, so every Gibbs step is one draw batched over rows.
The coefficient rows are drawn by perturb-then-solve
(:func:`draw_weighted_regression`), one solve and no factorisation. Each
series' precision X' W_i X = sum_t w_it x_t x_t' is read from one table of
the regressor products x_ta x_tb, a <= b, that a chain builds once
(:func:`gram_table`, T k(k+1)/2 8 bytes: 1.9 MB at (T, k) = (200, 49),
about 23 MB at (600, 97)), as P = (W @ products).take(index) for all n
series at once. The r x r loading and factor blocks use
:func:`quantvar.dist.draw_from_precision_system` on systems of one product
form (:func:`factor_system`), built from the row-wise outer products of
their regressors and the weighted factor target W R, R = Y - X Phi' - theta Z:

    loadings  P = W @ (F ⊗ F) + I,     rhs = (W R) @ F,
    factors   P = W' @ (Lam ⊗ Lam) + I, rhs = (W R)' @ Lam,

one matrix product each for every row or period at once. A sweep builds
each term its steps share once: tau2 sigma (the weights and the latent
step), theta Z (the coefficient and factor targets), W R (both factor
blocks) and Lam F' after the factor draw (the residuals and the next
sweep's coefficient target Y - theta Z - Lam F'). It keeps its
per-observation arrays series-major, (n, T), and reads the design's
contiguous transposes ``YT`` and ``XT``, so every sum over t runs along
contiguous memory. :func:`run_gibbs` drives a chain of this model and of
the Gaussian benchmark in ``bvar``.
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
        if not (0 < self.a_sigma < np.inf and 0 < self.b_sigma < np.inf):  # False on NaN too
            raise ValueError("inverse-gamma hyperparameters must be positive and finite")


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
    sigma: np.ndarray  # (n,) scales: the asymmetric-Laplace scale (bvar: the shock variance)
    psi: np.ndarray  # (n, k) horseshoe local scales
    kappa: float  # horseshoe global scale
    nu: np.ndarray  # (n, k) auxiliaries of the local scales
    xi: float  # auxiliary of the global scale


def gram_table(X):
    """Per-observation regressor products of X (T, k), for :func:`weighted_system`.

    Returns (products, index): products (T, k(k+1)/2) holds x_ta x_tb for
    a <= b, row a's block of columns b = a..k-1 after row a-1's, and index
    (k, k) maps cell (a, b) and cell (b, a) to the column of that product.
    The blocks are written in place, so the table is the only memory taken.
    """
    T, k = X.shape
    products = np.empty((T, k * (k + 1) // 2))
    index = np.empty((k, k), dtype=np.intp)
    col = 0
    for a in range(k):
        end = col + k - a
        np.multiply(X[:, a : a + 1], X[:, a:], out=products[:, col:end])
        index[a, a:] = index[a:, a] = np.arange(col, end)
        col = end
    return products, index


def weighted_system(X, y, weights, prior_prec_diag, table=None):
    """Precision and linear term of a heteroskedastic Bayes regression.

    Returns (P, rhs) with P = X' W X + diag(prior_prec_diag) and
    rhs = X' W y, so the conditional is N(P^-1 rhs, P^-1). X is (T, k).
    Batched over series, which are stored series-major: y and weights
    (n, T) with prior_prec_diag (n, k) give the n systems of series i,
    P (n, k, k) and rhs (n, k); (T,) and (k,) give one. Each series'
    X' W_i X = sum_t w_it x_t x_t' is read from one table of the products
    x_ta x_tb, a <= b (:func:`gram_table`): P = (W @ products).take(index),
    one (n, T) x (T, k(k+1)/2) product for every series, half the flops of
    a full k x k product per series, no weighted (n, k, T) copy of X, and
    P exactly symmetric. rhs = (W * y) @ X. The table takes
    T k(k+1)/2 8 bytes: 1.9 MB at (T, k) = (200, 49), about 23 MB at
    (600, 97).

    Weights with one dimension fewer than y, (n,) (or a scalar for one
    system), are constant along each series, w_ti = w_i, as in the Gaussian
    model. Then X' W X = (X'X) w_i and X' W y = (y X) w_i: one k x k product
    serves all n systems.

    ``table`` holds what the system needs of X alone, for a caller whose X
    is fixed over many calls (a chain's design): ``gram_table(X)`` for
    weights that vary along t, X'X (``X.T @ X``) for constant weights.
    Without it the system computes the same from X, by the same arithmetic.
    """
    w = np.asarray(weights)
    y = np.asarray(y)
    if w.ndim < y.ndim:
        XtX = X.T @ X if table is None else table
        P = XtX * w[..., None, None]
        rhs = y.dot(X) * w[..., None]
    else:
        products, index = gram_table(X) if table is None else table
        P = w.dot(products).take(index, axis=-1)
        rhs = (w * y).dot(X)
    # the diagonals, a strided view of the flattened stack, which is a view
    # of the new P; einsum's "...ii->...i" view costs about 3 us a call
    k = P.shape[-1]
    P.reshape(P.shape[:-2] + (k * k,))[..., :: k + 1] += prior_prec_diag
    return P, rhs


def draw_weighted_regression(X, y, weights, prior_prec_diag, rng, table=None):
    """Draw beta ~ N(P^-1 rhs, P^-1) for the system of :func:`weighted_system`.

    Perturb-then-solve (Papandreou & Yuille 2010; Bhattacharya, Chakraborty
    & Mallick 2016): every observation gets u / sqrt(w) added, u ~ N(0, 1),
    and the linear term gets sqrt(prior) v, v ~ N(0, 1). The solution
    beta = P^-1 (X' W (y + u / sqrt(w)) + sqrt(prior) v) then has mean
    P^-1 rhs and covariance P^-1 (X' W X + diag(prior)) P^-1 = P^-1, from
    one solve with one right-hand side and no factorisation. Shapes and
    batching are those of :func:`weighted_system`, in both weight forms,
    and ``table`` is passed on to it.
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
    P, rhs = weighted_system(X, y_star, w, prior, table)
    v = rng.standard_normal(prior.shape)
    v *= np.sqrt(prior)
    rhs += v
    return np.linalg.solve(P, rhs[..., None])[..., 0]


def step_coefficients(design, state, target, W, rng, table=None) -> None:
    """Draw all coefficient rows from their normal full conditionals.

    ``target`` is the coefficient part of the data, Y - theta Z - Lam F',
    (n, T). W holds the observation weights 1/(tau2 sigma_i z_it), (n, T),
    or the Gaussian model's per-series weights 1/sigma_i, (n,) (see
    :func:`weighted_system`); ``table`` is the chain's table of the design's
    regressor products for that weight form. The rows are independent given
    the other blocks, so they are drawn in one batched perturb-then-solve
    call (:func:`draw_weighted_regression`).
    """
    prior_prec = 1.0 / (state.psi**2 * state.kappa**2)
    state.Phi[:] = draw_weighted_regression(design.X, target, W, prior_prec, rng, table)


def factor_system(A, W, WR):
    """Precision and linear term of a stack of r x r systems with prior N(0, I).

    A (m, r) holds the regressors of the m terms each system sums over,
    W (..., m) their weights and WR (..., m) their weighted targets, W times
    the target. Then P = W @ (A ⊗ A) + I, where A ⊗ A (m, r r) holds the
    row-wise outer products a_j a_j', and rhs = WR @ A: one matrix product
    each for the whole stack, P exactly symmetric. The loadings are
    factor_system(F, W, WR), summing over t, with P (n, r, r); the factors
    factor_system(Lam, W.T, WR.T), summing over series, with P (T, r, r).
    Weights constant along each series, W (n,), give the factors one
    precision P (r, r) shared by every period, which
    :func:`quantvar.dist.draw_from_precision_system` broadcasts over rhs.
    """
    # a.dot(b) is the BLAS product of a @ b, bit for bit, with half a
    # microsecond less call overhead
    m, r = A.shape
    P = W.dot((A[:, :, None] * A[:, None, :]).reshape(m, r * r))
    P[..., :: r + 1] += 1.0  # the diagonals of the flattened stack
    return P.reshape(P.shape[:-1] + (r, r)), WR.dot(A)


def step_loadings(state, W, WR, rng) -> None:
    """Draw all loading rows in one batched call; prior is N(0, I) on every row.

    W is as in :func:`step_coefficients` and WR is W times the target of the
    factor part, Y - X Phi' - theta Z, (n, T). The systems are
    :func:`factor_system` of the factors; weights constant along each
    series, W (n,), are repeated along t.
    """
    if state.Lam.shape[1] == 0:
        return
    if W.ndim < WR.ndim:
        W = W[:, None].repeat(WR.shape[1], axis=1)
    P, rhs = factor_system(state.F, W, WR)
    state.Lam[:], _ = draw_from_precision_system(P, rhs, rng)


def step_factors(state, W, WR, rng) -> None:
    """Draw all factor vectors jointly across t (batched r x r systems).

    W and WR are those of :func:`step_loadings`: the systems are
    :func:`factor_system` of the loadings, summed over series.
    """
    if state.Lam.shape[1] == 0:
        return
    P, rhs = factor_system(state.Lam, W.T, WR.T)
    state.F, _ = draw_from_precision_system(P, rhs, rng)


def step_latent(state, E, theta, s, rng) -> None:
    """Draw mixture variables z_it ~ GIG(1/2, e^2/s_i, theta^2/s_i + 2/sigma_i), s_i = tau2 sigma_i.

    E holds the regression residuals Y - X Phi' - F Lam', (n, T), and s the
    scales tau2 sigma_i as a column, (n, 1), which the sweep's weights
    1/(s_i z_it) share. The 2/sigma_i term is the Exp(mean sigma_i) prior.
    """
    a = E * E
    a /= s
    z = draw_gig_half(a, theta**2 / s + 2.0 / state.sigma[:, None], rng)
    state.Z = np.maximum(z, _Z_FLOOR, out=z)


def step_scales(state, E, theta, tau2, a_sigma, b_sigma, rng) -> None:
    """Draw sigma_i ~ IG(a + 3T/2, b + sum [(e - theta z)^2 / (2 tau2 z) + z]).

    E holds the regression residuals, as in :func:`step_latent`. sigma
    enters both parts of the mixture: the Gaussian part adds T/2 to the
    shape and the shift-adjusted squared residuals to the scale, and the
    Exp(mean sigma) mixing law adds T to the shape and sum z to the scale.
    """
    T = E.shape[1]
    adj = theta * state.Z
    np.subtract(E, adj, out=adj)
    adj *= adj
    adj /= 2.0 * tau2 * state.Z
    adj += state.Z
    scale = b_sigma + adj.sum(axis=1)
    state.sigma[:] = draw_inverse_gamma(a_sigma + 1.5 * T, scale, rng)


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
    design: LagDesign, config: ModelConfig, sweep, quantile: float
) -> tuple[PosteriorDrawSet, ChainDiagnostics]:
    """Run ``sweep`` on one chain and return its thinned post-burn-in draws.

    ``sweep(state)`` makes one Gibbs sweep in place and returns the residuals
    Y - X Phi' - F Lam' it computed, which give the residual rms of a
    retained draw. ``quantile`` labels the draw set.
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
    variables, scales, shrinkage. The terms the steps share (see the module
    docstring) are computed once per sweep and passed to the steps that
    read them; the table of the design's regressor products
    (:func:`gram_table`) once per chain.
    """
    theta, tau2 = config.level.theta, config.level.tau2
    table = gram_table(design.X)
    LF = None  # Lam F' of the last factor draw

    def sweep(state):
        # terms shared by the steps, each built once: tau2 sigma, W and
        # theta Z until sigma and Z move (latent and scale steps), Y - X Phi'
        # once Phi is drawn, W R for both factor blocks, and Lam F' once the
        # factors are drawn, for the residuals E and the next sweep's
        # coefficient target
        nonlocal LF
        if LF is None:
            LF = state.Lam.dot(state.F.T)
        s = tau2 * state.sigma[:, None]
        W = 1.0 / (s * state.Z)
        thetaZ = theta * state.Z
        target = design.YT - thetaZ
        target -= LF
        step_coefficients(design, state, target, W, rng, table)
        D = design.YT - state.Phi.dot(design.XT)
        WR = D - thetaZ
        WR *= W
        step_loadings(state, W, WR, rng)
        step_factors(state, W, WR, rng)
        LF = state.Lam.dot(state.F.T)
        E = D - LF
        step_latent(state, E, theta, s, rng)
        step_scales(state, E, theta, tau2, config.a_sigma, config.b_sigma, rng)
        step_shrinkage(state, rng)
        return E

    return run_gibbs(design, config, sweep, config.quantile)
