"""Quantile Bayesian VAR estimation, forecasting, scoring and combination."""

__version__ = "0.1.0"
