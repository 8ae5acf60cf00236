"""Proximal calculus for the conjugate of the l1 penalty.

The conjugate prox is the projection onto the unit l-infinity ball, so it
takes no step parameter; its diagonal (sub)gradient is the
indicator of the open unit interval, with ties at |c| = 1 resolved to 0.
"""

from __future__ import annotations

import numpy as np


def prox_conj_l1(v: np.ndarray) -> np.ndarray:
    """Prox of the conjugate of the l1 norm, for any step sigma > 0:
    componentwise clip to [-1, 1] (projection onto the l-inf ball)."""
    return np.clip(np.asarray(v, dtype=np.float64), -1.0, 1.0)


def prox_conj_l1_diag_jacobian(c: np.ndarray) -> np.ndarray:
    """Diagonal Jacobian of the clip: 1 where |c| < 1, else 0 (ties to 0)."""
    c = np.asarray(c, dtype=np.float64)
    return (np.abs(c) < 1.0).astype(np.float64)
