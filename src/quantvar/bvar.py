"""Gaussian factor VAR benchmark sharing the quantile model's machinery.

Same regression structure and priors (horseshoe coefficients, unit-normal
loadings, standard-normal factors), but with homoskedastic normal errors:

    y_t = Phi x_t + Lam f_t + eps_t,   eps_it ~ N(0, sigma_i).

This is the quantile sampler at theta = 0, tau2 = 1 with the mixture
variables pinned at one, plus the conjugate inverse-gamma variance update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LagDesign
from .dist import draw_inverse_gamma
from .qbvar import (
    ChainDiagnostics,
    McmcSchedule,
    PosteriorDrawSet,
    QbvarConfig,
    QbvarState,
    init_state,
    step_coefficients,
    step_factors,
    step_loadings,
    step_shrinkage,
)


@dataclass(frozen=True)
class BvarConfig:
    """Lag order, factor count (may be zero) and variance hyperparameters."""

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


def step_scales_gaussian(state: QbvarState, E, a_sigma, b_sigma, rng) -> None:
    """Conjugate variance draw sigma_i ~ IG(a + T/2, b + sum e^2 / 2); E is (T, n) residuals."""
    T = E.shape[0]
    scale = b_sigma + 0.5 * np.sum(E**2, axis=0)
    state.sigma[:] = draw_inverse_gamma(a_sigma + T / 2.0, scale, rng)


def run_bvar_chain(
    design: LagDesign, config: BvarConfig, rng: np.random.Generator
) -> tuple[PosteriorDrawSet, ChainDiagnostics]:
    """Gibbs sampler for the Gaussian benchmark; thinned post-burn-in draws."""
    # reuse the quantile-model state container; quantile value is irrelevant here
    proxy = QbvarConfig(
        p=config.p,
        r=config.r,
        quantile=0.5,
        schedule=config.schedule,
        a_sigma=config.a_sigma,
        b_sigma=config.b_sigma,
    )
    state = init_state(design, proxy)
    sched = config.schedule
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
        # shared terms once per sweep, as in qbvar.run_chain; with theta = 0
        # and tau2 = 1 the factor target Y - X Phi' - theta Z is D itself
        W = 1.0 / (state.sigma * state.Z)
        step_coefficients(design, state, 0.0, W, rng)
        D = design.Y - design.X @ state.Phi.T
        step_loadings(state, W, D, rng)
        step_factors(state, W, D, rng)
        E = D - state.F @ state.Lam.T if config.r else D
        step_scales_gaussian(state, E, config.a_sigma, config.b_sigma, rng)
        step_shrinkage(state, rng)
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
        kind="bvar",
        quantile=float("nan"),
        p=config.p,
        Phi=Phi_draws,
        Lam=Lam_draws,
        sigma=sigma_draws,
        variable_names=list(design.variable_names),
    )
    return draws, diag
