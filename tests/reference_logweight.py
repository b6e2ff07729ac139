"""Test-only log-weight reference.

``log_weight_term`` is the expression the package computed each key's
term with before it worked in two buffers; the package's term must equal
it bit for bit, NaN for NaN.
"""

import numpy as np


def log_weight_term(mu: np.ndarray, sd: np.ndarray, noise: str) -> np.ndarray:
    """Entry (i, j): the log of a normal density at mean gap
    ``mu[i] - mu[j]`` with the pair's combined noise scale."""
    if noise == "sum":
        scale = sd[:, None] + sd[None, :]
    else:
        scale = np.hypot(sd[:, None], sd[None, :])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diff = mu[:, None] - mu[None, :]
        var2 = 2.0 * scale * scale
        return -(diff * diff) / var2 - 0.5 * np.log(np.pi * var2)
