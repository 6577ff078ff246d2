"""Seeded input files shaped like the WS-DREAM response-time data.

Only numpy is used, so the inputs do not depend on the code under test.
The program sees nothing but the files written here.

Each observed cell gets a Gaussian latent score: a per-user effect, a
per-service effect, a rank-RANK user-service interaction and noise, each
with a fixed share of the unit variance. The scores are then mapped by
rank onto log-normal draws, so the values have exactly the marginal
below while their order follows the structure. A user effect in log
space is a factor in value space, so the values are close to low rank.

All parameters are assumed, not fitted: the real WS-DREAM file is not
in the repository. The marginal gives a median of about 0.3 s, a mean
of about 0.83 s and a long tail clipped below 20 s (the data's 0-20 s
response-time scale), written with three decimals as in the public
data. The variance shares make service more important than user, as
in response times, where some services are slow for everyone.
"""

from __future__ import annotations

import hashlib

import numpy as np

LOG_MU = -1.17
LOG_SIGMA = 1.427
CLIP_S = 19.999
RANK = 5
SHARES = {"user": 0.15, "service": 0.35, "interaction": 0.30, "noise": 0.20}


def _values(rng, users, services, num_users, num_services):
    n = len(users)
    user = rng.standard_normal(num_users)
    service = rng.standard_normal(num_services)
    p = rng.standard_normal((num_users, RANK))
    q = rng.standard_normal((num_services, RANK))
    latent = (np.sqrt(SHARES["user"]) * user[users]
              + np.sqrt(SHARES["service"]) * service[services]
              + np.sqrt(SHARES["interaction"] / RANK) * np.einsum("ij,ij->i", p[users], q[services])
              + np.sqrt(SHARES["noise"]) * rng.standard_normal(n))
    marginal = np.sort(np.round(np.minimum(rng.lognormal(LOG_MU, LOG_SIGMA, n), CLIP_S), 3))
    values = np.empty(n)
    values[np.argsort(latent, kind="stable")] = marginal
    return values


def write_dense(path, seed: int, num_users: int, num_services: int, density: float) -> dict:
    """Dense matrix file: one row per user, -1 marks a missing cell."""
    rng = np.random.default_rng(seed)
    observed = rng.random((num_users, num_services)) < density
    users, services = np.nonzero(observed)
    values = _values(rng, users, services, num_users, num_services)
    matrix = np.full((num_users, num_services), -1.0)
    matrix[users, services] = values
    np.savetxt(path, matrix, fmt="%.3f", delimiter="\t")
    return _record(path, "dense", seed, num_users, num_services, len(users), values,
                   density=density)


def write_triples(path, seed: int, num_users: int, num_services: int, num_obs: int) -> dict:
    """Triples file "user service value", sorted by user then service."""
    rng = np.random.default_rng(seed)
    cells = np.sort(rng.choice(num_users * num_services, size=num_obs, replace=False))
    users, services = np.divmod(cells, num_services)
    values = _values(rng, users, services, num_users, num_services)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {s} {v:.3f}\n"
                      for u, s, v in zip(users.tolist(), services.tolist(), values.tolist()))
    return _record(path, "triples", seed, num_users, num_services, num_obs, values)


def _record(path, fmt, seed, num_users, num_services, num_obs, values, **extra) -> dict:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"format": fmt, "seed": seed, "num_users": num_users,
            "num_services": num_services, "num_obs": int(num_obs), **extra,
            "log_mu": LOG_MU, "log_sigma": LOG_SIGMA, "clip_s": CLIP_S,
            "rank": RANK, "shares": SHARES,
            "value_mean": float(values.mean()), "value_max": float(values.max()),
            "file_bytes": size, "sha256": digest.hexdigest()}
