"""Finite-dimensional Koopman lifting of measured outputs.

The lifted coordinates are thin-plate-style radial basis observables
evaluated at the measured output vector.  A bank stores its centers, so
the map is a deterministic pure function once built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _rbf_values(r: np.ndarray) -> np.ndarray:
    """Evaluate r^2 * log10(r), with the continuous limit 0 at r = 0."""
    out = np.zeros_like(r)
    mask = r > 0.0
    rm = r[mask]
    out[mask] = rm * rm * np.log10(rm)
    return out


@dataclass(frozen=True)
class RbfBank:
    """Bank of radial basis observables with fixed centers.

    Each observable maps an output vector y to ``r**2 * log10(r)`` where
    r is the Euclidean distance from y to the observable's center.
    """

    centers: np.ndarray  # (n_basis, n_y)
    seed: int = 0

    def __post_init__(self) -> None:
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if centers.shape[0] < 1:
            raise ValueError("bank needs at least one center")
        object.__setattr__(self, "centers", centers)

    @property
    def n_basis(self) -> int:
        return self.centers.shape[0]

    @property
    def n_y(self) -> int:
        return self.centers.shape[1]

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Observables of one (n_y,) output: one row of ``lift_trajectory``."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_y,):
            raise ValueError(f"expected output of length {self.n_y}, got shape {y.shape}")
        return self.lift_trajectory(y[None, :])[0]

    def lift_trajectory(self, ys: np.ndarray) -> np.ndarray:
        """Observables of a (T, n_y) output sequence, (T, n_basis); raises on non-finite rows."""
        ys = np.asarray(ys, dtype=float)
        if ys.size == 0:
            return np.zeros((0, self.n_basis))
        ys = np.atleast_2d(ys)
        if ys.shape[1] != self.n_y:
            raise ValueError(f"expected outputs of width {self.n_y}, got {ys.shape[1]}")
        bad = ~np.all(np.isfinite(ys), axis=1)
        if np.any(bad):
            raise ValueError(f"non-finite output at step {int(np.argmax(bad))}")
        # pairwise distances, (T, n_basis)
        diff = ys[:, None, :] - self.centers[None, :, :]
        r = np.sqrt(np.einsum("tbk,tbk->tb", diff, diff))
        return _rbf_values(r)


@dataclass(frozen=True)
class IdentityBank:
    """Pass-through observable bank: z = y.

    Used to reduce the lifted controller to its unlifted counterpart in
    structural comparisons.
    """

    n_y: int
    seed: int = field(default=0)

    @property
    def n_basis(self) -> int:
        return self.n_y

    def lift(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_y,):
            raise ValueError(f"expected output of length {self.n_y}, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite output vector")
        return y.copy()

    def lift_trajectory(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if ys.size == 0:
            return np.zeros((0, self.n_y))
        bad = ~np.all(np.isfinite(ys), axis=1)
        if np.any(bad):
            raise ValueError(f"non-finite output at step {int(np.argmax(bad))}")
        return ys.copy()


def build_bank(data_outputs: np.ndarray, n_basis: int, seed: int) -> RbfBank:
    """Draw ``n_basis`` centers uniformly from the bounding box of the data.

    The axis-aligned bounding box is the component-wise min/max of the
    output samples; a degenerate box collapses all centers onto the
    single visited point.  Identical data and seed give identical banks.
    """
    data_outputs = np.atleast_2d(np.asarray(data_outputs, dtype=float))
    if data_outputs.size == 0:
        raise ValueError("empty output data")
    if n_basis < 1:
        raise ValueError("n_basis must be >= 1")
    lo = data_outputs.min(axis=0)
    hi = data_outputs.max(axis=0)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(lo, hi, size=(n_basis, data_outputs.shape[1]))
    return RbfBank(centers=centers, seed=seed)


def save_bank(bank: RbfBank, path: str | Path) -> None:
    payload = {
        "seed": int(bank.seed),
        "n_basis": int(bank.n_basis),
        "n_y": int(bank.n_y),
        "centers": bank.centers.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_bank(path: str | Path) -> RbfBank:
    payload = json.loads(Path(path).read_text())
    centers = np.asarray(payload["centers"], dtype=float)
    if centers.shape != (payload["n_basis"], payload["n_y"]):
        raise ValueError(f"corrupt bank file {path}: center shape mismatch")
    return RbfBank(centers=centers, seed=int(payload["seed"]))
