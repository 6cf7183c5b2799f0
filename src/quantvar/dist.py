"""Random-variate kernels shared by the Gibbs samplers.

Everything takes an explicit ``numpy.random.Generator``; reproducibility
comes from :func:`derive_rng`, which spawns independent streams from a
master seed and a structured key (origin, model, quantile, ...). The
Gaussian and inverse-gamma draws are batched over rows: one call draws every
row of a Gibbs block. A Gaussian draw in precision form (the loading and
factor blocks; the coefficient rows are drawn without a factorisation, by
``quantvar.qbvar.draw_weighted_regression``) takes one Cholesky
factorisation P = L L^T and one solve with two right-hand sides, using
mean + L^-T z = P^-1 (rhs + L z) (Rue 2001); one P may serve a whole stack
of right-hand sides (the Gaussian model's factors share one precision over
all periods). A stack of positive, finite 1 x 1 systems (the loadings and
factors of a one-factor model) skips LAPACK: its draw is
(rhs + sqrt(d) z) (1/d) in closed form, bit for bit what the
factor-and-solve path gives on OpenBLAS. The horseshoe scales
take the inverse-gamma conditionals of Makalic & Schmidt (2016), drawn from
numpy's exponential and gamma generators alone. The kernels run once or
more per Gibbs step, so they work in place where they can: each value is
still computed by the same operations in the same order, so the draws are
bit for bit those of the plain formulas.
"""

from __future__ import annotations

import numpy as np

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
    a_safe = np.maximum(a, _TINY)
    # in place on arrays of the broadcast shape, which the first product
    # gives (0-d included), each value by the same operations in the same
    # order as the plain formula
    #   x+ = 1 + (nu + sqrt(nu^2 + 4 om nu)) / (2 om),  om = sqrt(a b)
    om = np.asarray(a_safe * b)
    shape = om.shape
    nu = rng.standard_normal(shape)
    nu *= nu
    np.sqrt(om, out=om)
    x_plus = np.multiply(om, 4.0, out=np.empty(shape))
    x_plus *= nu
    x_plus += nu * nu
    np.sqrt(x_plus, out=x_plus)
    x_plus += nu
    om *= 2.0
    x_plus /= om
    x_plus += 1.0
    x_minus = np.divide(1.0, x_plus, out=om)
    accept = np.add(x_minus, 1.0, out=nu)
    np.divide(1.0, accept, out=accept)
    np.copyto(x_plus, x_minus, where=rng.random(shape) < accept)
    # x_plus is now 1/X scaled by mu = sqrt(b/a) in the IG parameterization; invert back
    out = np.divide(a_safe, b, out=x_minus)
    np.sqrt(out, out=out)
    out /= x_plus
    return out


def draw_inverse_gamma(shape_param: float, scale, rng: np.random.Generator):
    """Inverse-gamma draw: X = 1/G with G ~ Gamma(shape, rate=scale).

    scale may be an array; one call then draws one value per element, in
    the same stream order as successive scalar calls.
    """
    scale = np.asarray(scale, dtype=float)
    if shape_param <= 0 or (scale <= 0).any():
        raise ValueError("inverse gamma requires positive shape and scale")
    # numpy's gamma is scale * standard_gamma: the same values without its
    # broadcast loop over an array scale
    g = rng.standard_gamma(shape_param, scale.shape)
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
    P broadcasts against rhs, so one (k, k) precision shared by a stack of
    rhs (T, k) gives T independent draws from one Cholesky factor.
    Returns (draw, posterior_mean). One Cholesky P = L L^T factors the whole
    stack and one solve with two right-hand sides gives the mean and the
    draw, since mean + L^-T z = P^-1 (rhs + L z); the normals z are taken in
    row order. Only if that factorization fails is each matrix factored on
    its own with jitter on its diagonal (:func:`_cholesky_with_jitter`), and
    that member's jitter is added to its diagonal of P before the solve, so
    a positive-definite member is never perturbed.

    When k = 1 and every member d = P[..., 0, 0] is finite and positive,
    the same arithmetic is done elementwise: L = sqrt(d), and the solve
    multiplies by 1/d, as OpenBLAS's triangular solve does with its
    reciprocal pivots. The draw (rhs + sqrt(d) z) (1/d) and the mean
    rhs (1/d) therefore equal the factor-and-solve results bit for bit there
    (within one rounding on a BLAS that divides). Any other 1 x 1 stack
    (a zero, negative, infinite or NaN member) takes the path above.
    """
    P = np.asarray(P, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    z = rng.standard_normal(rhs.shape)
    if P.shape[-1] == 1 and P.size:
        d = P[..., 0]
        if 0 < d.min() and d.max() < np.inf:  # False on a NaN member too
            inv = 1.0 / d
            # (rhs + sqrt(d) z) (1/d), formed in z's buffer
            z *= np.sqrt(d)
            z += rhs
            z *= inv
            return z, rhs * inv
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        k = P.shape[-1]
        L, jitter = zip(*map(_cholesky_with_jitter, P.reshape(-1, k, k)))
        L = np.stack(L).reshape(P.shape)
        P = P + np.reshape(jitter, P.shape[:-2])[..., None, None] * np.eye(k)
    B = np.empty(rhs.shape + (2,))
    B[..., 0] = rhs
    np.add(rhs, (L @ z[..., None])[..., 0], out=B[..., 1])
    sol = np.linalg.solve(P, B)
    return sol[..., 1], sol[..., 0]


# ---------------------------------------------------------------------------
# Horseshoe scale updates (Makalic & Schmidt 2016). The half-Cauchy(0, 1)
# priors on the local scales psi and the global scale kappa are written as
# inverse-gamma mixtures, psi^2 | nu ~ IG(1/2, 1/nu) with nu ~ IG(1/2, 1), and
# kappa^2 | xi ~ IG(1/2, 1/xi) with xi ~ IG(1/2, 1); every full conditional
# is then inverse gamma. IG(a, s) is s / Gamma(a, 1), and IG(1, s) is
# s / Exp(1).


def update_horseshoe(beta, nu, kappa: float, xi: float, rng: np.random.Generator):
    """One Gibbs sweep of the horseshoe scales and their auxiliaries.

    beta: current coefficients under the prior beta_j ~ N(0, psi_j^2 kappa^2);
    nu has one entry per coefficient. Draws in turn

        psi_j^2 ~ IG(1, 1/nu_j + beta_j^2/(2 kappa^2)),
        nu_j    ~ IG(1, 1 + 1/psi_j^2),
        kappa^2 ~ IG((k+1)/2, 1/xi + sum beta_j^2/(2 psi_j^2)),
        xi      ~ IG(1, 1 + 1/kappa^2),

    and returns (psi, nu, kappa, xi). The new psi depends on the old state
    only through nu and kappa, so psi is not an argument. psi^2 and kappa^2
    are floored away from zero so the coefficients' prior precision
    1/(psi^2 kappa^2) stays finite.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    nu = np.asarray(nu, dtype=float).ravel()
    k = beta.size
    if nu.size != k:
        raise ValueError("nu length must match beta")
    e = rng.standard_exponential(2 * k + 1)
    half_b2 = beta * beta
    half_b2 *= 0.5
    psi2 = np.divide(half_b2, kappa**2)
    psi2 += 1.0 / nu
    psi2 /= e[:k]
    np.maximum(psi2, _TINY, out=psi2)
    nu = np.divide(1.0, psi2)
    nu += 1.0
    nu /= e[k:-1]
    half_b2 /= psi2
    kappa2 = (1.0 / xi + half_b2.sum()) / rng.standard_gamma(0.5 * (k + 1))
    kappa2 = max(kappa2, _TINY)
    xi = (1.0 + 1.0 / kappa2) / e[-1]
    return np.sqrt(psi2, out=psi2), nu, float(np.sqrt(kappa2)), float(xi)
