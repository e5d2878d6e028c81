"""Test oracles that the library itself does not need."""

import numpy as np

from tensorpress.factorize import _as_matrices


def frobenius_loss(w, w1, w2) -> float:
    """Squared Frobenius norm of W - W1 @ W2, in float64 from fresh arrays:
    the reference anneal_factorize's final_loss must match bit for bit."""
    a, b, c = _as_matrices(w, w1, w2)
    return float(np.sum((a - b @ c) ** 2))
