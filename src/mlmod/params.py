"""Coupling strategies and modularity parameters.

A coupling between layer cells carries a signed strength: ``+e`` when the
coupling is present and ``-e`` when it is absent, where the amplitude ``e``
depends on the chosen strategy.  Absent couplings therefore actively
penalise co-assignment of node copies instead of being silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .network import MultilayerNetwork

COUPLING_STRATEGIES = ("uniform", "closeness", "temporal", "explicit")
NORMALIZATION_MODES = ("raw", "normalized")


# The rules of each setting, shared by CouplingSpec, ModularityParams and the
# parameter-file reader; each raises DomainError with the bare message.
def check_strategy(strategy: str) -> None:
    if strategy not in COUPLING_STRATEGIES:
        raise DomainError(f"unknown coupling strategy {strategy!r}")


def check_omega(omega: float) -> None:
    if not np.isfinite(omega) or omega < 0:
        raise DomainError(f"omega must be finite and >= 0, got {omega}")


def check_closeness(closeness, n_cells: int | None = None) -> np.ndarray:
    """A read-only copy of a valid closeness matrix, with ``n_cells`` rows
    when given."""
    m = np.asarray(closeness, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("closeness matrix must be square")
    if n_cells is not None and m.shape != (n_cells, n_cells):
        raise DomainError(f"closeness matrix shape {m.shape} does not match "
                          f"{n_cells} layer cells")
    if not np.isfinite(m).all():
        raise DomainError("closeness matrix entries must be finite")
    if not np.allclose(m, m.T):
        raise DomainError("closeness matrix must be symmetric")
    if (m < 0).any():
        raise DomainError("closeness matrix must be non-negative")
    if m.max(initial=0.0) <= 0:
        raise DomainError("closeness matrix must have a strictly positive maximum")
    m = m.copy()
    m.setflags(write=False)
    return m


def check_normalization(mode: str) -> None:
    if mode not in NORMALIZATION_MODES:
        raise DomainError(f"unknown normalization mode {mode!r}")


def check_resolutions(values, what: str = "resolution gamma") -> None:
    """gamma, or ``what`` = "gamma_plus entries" / "gamma_minus entries"."""
    for g in values:
        if not np.isfinite(g) or g <= 0:
            raise DomainError(f"{what} must be finite and > 0, got {g}")


def check_weights(values) -> None:
    for w in values:
        if not np.isfinite(w) or w < 0:
            raise DomainError(f"layer weight lambda must be finite and >= 0, got {w}")


@dataclass(frozen=True)
class CouplingSpec:
    """How coupling amplitudes ``e`` are assigned to node-copy pairs.

    strategy
        ``uniform``: every candidate pair has amplitude ``omega``.
        ``closeness``: ``omega * M[a, b] / max(M)`` where ``M`` is a symmetric
        non-negative layer-cell closeness matrix.
        ``temporal``: ``omega`` for consecutive layers of the same aspect,
        0 otherwise.
        ``explicit``: the magnitudes carried by the network's couplings
        (``Couplings.magnitude``); every other pair gets amplitude 0.
    """

    strategy: str = "uniform"
    omega: float = 1.0
    closeness: np.ndarray | None = None

    def __post_init__(self):
        check_strategy(self.strategy)
        check_omega(self.omega)
        if self.strategy == "closeness":
            if self.closeness is None:
                raise DomainError("closeness strategy requires a closeness matrix")
            object.__setattr__(self, "closeness", check_closeness(self.closeness))


@dataclass(frozen=True)
class ModularityParams:
    """Per-layer-cell resolution and weight parameters.

    ``gamma`` and ``lam`` are tuples with one entry per layer cell in global
    cell order.  ``gamma_plus`` / ``gamma_minus`` are only consulted when
    ``signed`` is set; they default to ``gamma``.
    """

    gamma: tuple[float, ...]
    lam: tuple[float, ...]
    normalization: str = "raw"
    signed: bool = False
    gamma_plus: tuple[float, ...] | None = None
    gamma_minus: tuple[float, ...] | None = None

    def __post_init__(self):
        check_normalization(self.normalization)
        if len(self.gamma) != len(self.lam):
            raise DomainError("gamma and lambda must have one entry per layer cell")
        check_resolutions(self.gamma)
        check_weights(self.lam)
        for name in ("gamma_plus", "gamma_minus"):
            vals = getattr(self, name)
            if vals is None:
                continue
            if len(vals) != len(self.gamma):
                raise DomainError(f"{name} must have one entry per layer cell")
            check_resolutions(vals, f"{name} entries")

    @classmethod
    def for_network(cls, net: "MultilayerNetwork", gamma=1.0, lam=1.0,
                    normalization: str = "raw", signed: bool = False,
                    gamma_plus=None, gamma_minus=None) -> "ModularityParams":
        """Build params for ``net``, broadcasting a scalar or a one-value
        sequence over the layer cells."""
        t = net.n_cells

        def broadcast(value):
            if value is None:
                return None
            vals = tuple(float(v) for v in np.ravel(value))
            if len(vals) == 1:
                return vals * t
            if len(vals) != t:
                raise DomainError(f"expected {t} per-layer values, got {len(vals)}")
            return vals

        return cls(
            gamma=broadcast(gamma),
            lam=broadcast(lam),
            normalization=normalization,
            signed=signed,
            gamma_plus=broadcast(gamma_plus),
            gamma_minus=broadcast(gamma_minus),
        )

    def gamma_signed(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(gamma_plus, gamma_minus) with defaults applied."""
        gp = self.gamma_plus if self.gamma_plus is not None else self.gamma
        gm = self.gamma_minus if self.gamma_minus is not None else self.gamma
        return gp, gm
