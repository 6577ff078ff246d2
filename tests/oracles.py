"""Reference implementations that the tests compare the library against."""

import numpy as np

from sofactor.data import IndexedDataset
from sofactor.model import FactorState


def dense_gn_oracle(x: FactorState, data: IndexedDataset) -> np.ndarray:
    """Explicit J^T J, built row by row. Test oracle only.

    Refuses problems with more than 200 parameters; the point is an
    independent check of gn_hvp on tiny instances, not a usable path.
    """
    dim = x.dim
    if dim > 200:
        raise ValueError(f"dense oracle limited to 200 parameters, got {dim}")
    t = data.base
    jac = np.zeros((len(t), dim))
    f = x.f
    cut = x.num_users * f
    for k in range(len(t)):
        u = int(t.users[k])
        s = int(t.services[k])
        for d in range(f):
            jac[k, u * f + d] = x.service_factors[s, d]
            jac[k, cut + s * f + d] = x.user_factors[u, d]
    return jac.T @ jac
