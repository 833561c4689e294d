"""The finite-difference gradient check behind the tests' gradient oracles."""

from __future__ import annotations

from typing import Callable

import numpy as np

from lsaf.errors import ConfigError, ContractError
from lsaf.tensor import Tensor, no_grad


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    theta: Tensor,
    h: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare the tape gradient of `f` at `theta` against central differences.

    Returns the maximum relative error over the probed coordinates (all of
    them by default; a random subset of `max_coords` for large tensors). The
    relative error of coordinate i is |fd_i - ad_i| / max(|fd_i|, |ad_i|, 1e-6).
    """
    if h <= 0:
        raise ConfigError(f"finite_diff_check step must be positive, got {h}")
    if not theta.requires_grad:
        raise ContractError("finite_diff_check needs a gradient-tracking tensor")

    theta.grad = None
    out = f(theta)
    if out.data.size != 1:
        raise ContractError("finite_diff_check target must return a scalar")
    out.backward()
    analytic = (
        np.zeros_like(theta.data) if theta.grad is None else theta.grad.copy()
    )

    flat = theta.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        idx = np.random.default_rng(seed).choice(n, size=max_coords, replace=False)
    else:
        idx = np.arange(n)

    worst = 0.0
    an_flat = analytic.reshape(-1)
    for i in idx:
        saved = flat[i]
        flat[i] = saved + h
        with no_grad():
            f_plus = f(theta).item()
        flat[i] = saved - h
        with no_grad():
            f_minus = f(theta).item()
        flat[i] = saved
        fd = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(fd), abs(an_flat[i]), 1e-6)
        worst = max(worst, abs(fd - an_flat[i]) / denom)
    return worst
