"""Random-variate kernels shared by the Gibbs samplers.

Everything takes an explicit ``numpy.random.Generator``; reproducibility
comes from :func:`derive_rng`, which spawns independent streams from a
master seed and a structured key (origin, model, quantile, ...). The
Gaussian and inverse-gamma draws are batched over rows: one call draws every
row of a Gibbs block. A Gaussian draw in precision form takes one Cholesky
factorisation P = L L^T and one solve with two right-hand sides, using
mean + L^-T z = P^-1 (rhs + L z) (Rue 2001).
"""

from __future__ import annotations

import numpy as np
from scipy import special

_TINY = 1e-300


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent stream for a structured key under one master seed.

    Streams for distinct keys are statistically independent and
    reproducible regardless of the order they are created in.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def draw_gig_half(a, b, rng: np.random.Generator) -> np.ndarray:
    """Elementwise exact GIG(1/2, a, b) draws for arrays of parameters.

    GIG(p, a, b) has density proportional to x^(p-1) exp(-(a/x + b x)/2)
    on x > 0. If X ~ GIG(1/2, a, b) then 1/X ~ IG(mu=sqrt(b/a), lam=b); we
    draw the inverse Gaussian by the squared-normal method, keeping the
    larger root in a cancellation-free form and selecting the smaller by its
    acceptance probability. a may be 0 (Gamma(1/2, b/2) limit, reached
    continuously).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b <= 0).any():
        raise ValueError("GIG requires b > 0")
    if (a < 0).any():
        raise ValueError("GIG requires a >= 0")
    shape = np.broadcast_shapes(a.shape, b.shape)
    a_safe = np.maximum(a, _TINY)
    nu = rng.standard_normal(shape) ** 2
    om = np.sqrt(a_safe * b)
    x_plus = 1.0 + (nu + np.sqrt(nu * nu + 4.0 * om * nu)) / (2.0 * om)
    x_minus = 1.0 / x_plus
    take_minus = rng.random(shape) < 1.0 / (1.0 + x_minus)
    v = np.where(take_minus, x_minus, x_plus)
    # v is 1/X scaled by mu = sqrt(b/a) in the IG parameterization; invert back
    return np.sqrt(a_safe / b) / v


def draw_inverse_gamma(shape_param: float, scale, rng: np.random.Generator, size=None):
    """Inverse-gamma draw: X = 1/G with G ~ Gamma(shape, rate=scale).

    scale may be an array; one call then draws one value per element, in
    the same stream order as successive scalar calls.
    """
    scale = np.asarray(scale, dtype=float)
    if shape_param <= 0 or (scale <= 0).any():
        raise ValueError("inverse gamma requires positive shape and scale")
    # numpy's gamma is scale * standard_gamma: the same values without its
    # broadcast loop over an array scale
    g = rng.standard_gamma(shape_param, scale.shape if size is None else size)
    return 1.0 / (g * (1.0 / scale))


def _cholesky_with_jitter(P: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of one (k, k) matrix, retried with diagonal jitter.

    Returns (L, jitter) with L L^T = P + jitter I. Jitter runs from
    1e-10 * mean(diag) up tenfold to 1e-6 * mean(diag); LinAlgError if P is
    still not positive definite.
    """
    k = P.shape[-1]
    base = float(np.mean(np.diag(P)))
    if not np.isfinite(base) or base <= 0:
        base = 1.0
    jitter = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(P + jitter * np.eye(k)), jitter
        except np.linalg.LinAlgError:
            jitter = 1e-10 * base if jitter == 0.0 else jitter * 10.0
    raise np.linalg.LinAlgError("precision matrix not positive definite after jitter escalation")


def draw_from_precision_system(P: np.ndarray, rhs: np.ndarray, rng: np.random.Generator):
    """Draw x ~ N(P^-1 rhs, P^-1) from a precision matrix and linear term.

    Batched over rows: P is (..., k, k) and rhs (..., k), one independent
    draw per leading index; a single (k, k) system is the unbatched case.
    Returns (draw, posterior_mean). One Cholesky P = L L^T factors the whole
    stack and one solve with two right-hand sides gives the mean and the
    draw, since mean + L^-T z = P^-1 (rhs + L z); the normals z are taken in
    row order. Only if that factorization fails is each matrix factored on
    its own with jitter on its diagonal (:func:`_cholesky_with_jitter`), and
    that member's jitter is added to its diagonal of P before the solve, so
    a positive-definite member is never perturbed.
    """
    P = np.asarray(P, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    z = rng.standard_normal(rhs.shape)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        k = P.shape[-1]
        L, jitter = zip(*map(_cholesky_with_jitter, P.reshape(-1, k, k)))
        L = np.stack(L).reshape(P.shape)
        P = P + np.reshape(jitter, P.shape[:-2])[..., None, None] * np.eye(k)
    b = rhs[..., None]
    sol = np.linalg.solve(P, np.concatenate([b, b + L @ z[..., None]], axis=-1))
    return sol[..., 1], sol[..., 0]


# ---------------------------------------------------------------------------
# Horseshoe slice-sampler updates. State is kept on the local scales psi
# (one per coefficient) and the global scale kappa; both updates work on
# eta = 1/psi^2 with a uniform slice auxiliary, which keeps every draw in
# closed form (truncated exponential / truncated gamma).


def _trunc_exp(rate, ub, u):
    """Exp(rate) truncated to (0, ub], via inverse cdf; rate may be ~0."""
    rate = np.asarray(rate, dtype=float)
    ub = np.asarray(ub, dtype=float)
    # inverse cdf: -log(1 - U (1 - exp(-r*ub))) / r, in expm1/log1p form
    with np.errstate(over="ignore"):
        rub = rate * ub
        tail = -np.expm1(-rub)
    small = rub < 1e-12
    out = -np.log1p(-u * tail) / np.where(small, 1.0, rate)
    out = np.where(small, u * ub, out)
    return np.minimum(out, ub)


def update_horseshoe(beta: np.ndarray, psi: np.ndarray, kappa: float, rng: np.random.Generator):
    """One slice-sampling sweep of horseshoe local and global scales.

    beta: current coefficients under the prior beta_j ~ N(0, psi_j^2 kappa^2).
    Returns (psi_new, kappa_new). Scales are floored away from zero so the
    conditionals for the coefficients stay proper.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    psi = np.asarray(psi, dtype=float).ravel()
    k = beta.size
    if psi.size != k:
        raise ValueError("psi length must match beta")

    # local scales: eta_j = 1/psi_j^2 | - ~ Exp(beta_j^2/(2 kappa^2)) on (0, (1-u_j)/u_j]
    eta = 1.0 / np.maximum(psi, _TINY) ** 2
    u = rng.random(k) * (1.0 / (1.0 + eta))
    u = np.maximum(u, _TINY)
    ub = (1.0 - u) / u
    rate = beta**2 / (2.0 * max(kappa, _TINY) ** 2)
    eta_new = _trunc_exp(rate, ub, rng.random(k))
    psi_new = 1.0 / np.sqrt(np.maximum(eta_new, _TINY))

    # global scale: eta_g = 1/kappa^2 | - ~ Gamma((k+1)/2, rate sum beta^2/(2 psi^2))
    # truncated to (0, (1-u)/u]
    eta_g = 1.0 / max(kappa, _TINY) ** 2
    ug = rng.uniform(0.0, 1.0 / (1.0 + eta_g))
    ug = max(ug, _TINY)
    ub_g = (1.0 - ug) / ug
    shape_g = (k + 1) / 2.0
    rate_g = float(np.sum(beta**2 / np.maximum(psi_new, _TINY) ** 2)) / 2.0
    v = rng.random()
    if rate_g * ub_g < 1e-12:
        # flat limit: density ~ x^(shape-1) on (0, ub]
        eta_g_new = ub_g * v ** (1.0 / shape_g)
    else:
        cdf_ub = special.gammainc(shape_g, rate_g * ub_g)
        eta_g_new = special.gammaincinv(shape_g, v * cdf_ub) / rate_g
        eta_g_new = min(eta_g_new, ub_g)
    kappa_new = 1.0 / np.sqrt(max(eta_g_new, _TINY))
    return psi_new, float(kappa_new)
