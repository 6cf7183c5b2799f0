"""Gaussian factor VAR benchmark sharing the quantile model's machinery.

Same regression structure and priors (horseshoe coefficients, unit-normal
loadings, standard-normal factors), but with homoskedastic normal errors:

    y_t = Phi x_t + Lam f_t + eps_t,   eps_it ~ N(0, sigma_i).

This is the quantile sampler at theta = 0, tau2 = 1 with the mixture
variables pinned at one, plus the conjugate inverse-gamma variance update,
so its sweep runs through the quantile model's chain driver
(:func:`quantvar.qbvar.run_gibbs`).

With Z = 1 every observation of series i carries the same weight
w_i = 1/sigma_i, so X' W X = (X'X) w_i, and the factor precision
sum_i w_i lam_i lam_i' + I is one r x r matrix for every period. The sweep
therefore passes the (n,) weights to the shared steps: they scale one
k x k product X'X, computed once per chain, for all series
(:func:`quantvar.qbvar.weighted_system`) and form one factor precision
w @ (Lam ⊗ Lam) + I broadcast over T (:func:`quantvar.qbvar.factor_system`),
where the quantile model weighs every observation's regressor products per
series and needs a precision per period. The loading systems repeat each
w_i along t and take the quantile model's form; the weighted target w D,
D = Y - X Phi', is formed once per sweep for both factor blocks, and
Lam F' once after the factor draw, for the residuals and the next sweep's
coefficient target Y - Lam F'. The coefficient draw perturbs every
observation of series i by u / sqrt(w_i)
(:func:`quantvar.qbvar.draw_weighted_regression`). Residuals are
series-major, (n, T), as in the quantile sweep.
"""

from __future__ import annotations

import numpy as np

from .data import LagDesign
from .dist import draw_inverse_gamma
from .qbvar import (
    ChainDiagnostics,
    ModelConfig,
    PosteriorDrawSet,
    QbvarState,
    run_gibbs,
    step_coefficients,
    step_factors,
    step_loadings,
    step_shrinkage,
)


def step_scales_gaussian(state: QbvarState, E, a_sigma, b_sigma, rng) -> None:
    """Conjugate variance draw sigma_i ~ IG(a + T/2, b + sum e^2 / 2); E is (n, T) residuals."""
    T = E.shape[1]
    scale = b_sigma + 0.5 * np.sum(E**2, axis=1)
    state.sigma[:] = draw_inverse_gamma(a_sigma + T / 2.0, scale, rng)


def run_bvar_chain(
    design: LagDesign, config: ModelConfig, rng: np.random.Generator
) -> tuple[PosteriorDrawSet, ChainDiagnostics]:
    """Gibbs sampler for the Gaussian benchmark; thinned post-burn-in draws."""
    XtX = design.X.T @ design.X
    LF = None  # Lam F' of the last factor draw

    def sweep(state):
        # shared terms once per sweep, as in qbvar.run_chain; with theta = 0
        # and tau2 = 1 the factor target Y - X Phi' - theta Z is D itself,
        # and Z = 1 leaves one weight per series
        nonlocal LF
        if LF is None:
            LF = state.Lam.dot(state.F.T)
        w = 1.0 / state.sigma
        step_coefficients(design, state, design.YT - LF, w, rng, XtX)
        D = design.YT - state.Phi.dot(design.XT)
        wD = w[:, None] * D
        step_loadings(state, w, wD, rng)
        step_factors(state, w, wD, rng)
        LF = state.Lam.dot(state.F.T)
        E = D - LF
        step_scales_gaussian(state, E, config.a_sigma, config.b_sigma, rng)
        step_shrinkage(state, rng)
        return E

    return run_gibbs(design, config, sweep, "bvar", float("nan"))
