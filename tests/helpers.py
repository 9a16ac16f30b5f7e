"""Scenario helpers shared by the test modules."""

from dataclasses import replace

import numpy as np

from coopnet.errors import ValidationError


def with_zero_sum(scn):
    """Adjust the last command so the cooperation zero-sum condition holds."""
    if scn.regime not in ("cooperation",):
        raise ValidationError("regime", "zero-sum applies to cooperation")
    nu0 = {i: np.asarray(v, dtype=float).copy()
           for i, v in scn.nu0.items()}
    q = scn.S.shape[0]
    total = np.zeros(q)
    for i in range(1, scn.n_nodes):
        vec = nu0.get(i, np.zeros(q))
        nu0[i] = vec
        total = total + vec
    nu0[scn.n_nodes] = -total
    return replace(scn, nu0=nu0)
