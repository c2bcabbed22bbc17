"""Run configuration shared by the forcing pipeline, the geometry pipeline
and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .jsonio import load_json
from .linalg import frac

ENV_CONFIG = "QF_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    rho: Fraction = Fraction(4)
    c1: Fraction = Fraction(1)
    c2: Fraction = Fraction(64)
    delta: Fraction = Fraction(1, 100)
    horizon: int = 512
    ordinal_cap: int = 2          # coherent builds run to omega * ordinal_cap
    dim_cap: int = 12             # compute op-norm, lower-bound, hahn-banach
    vertex_cap: int = 6
    seed: int = 0
    schedule: tuple = ()          # () means the default interleaving

    def __post_init__(self):
        for name in ("rho", "c1", "c2", "delta"):
            object.__setattr__(self, name, frac(getattr(self, name)))
        if self.rho <= 1 or self.c2 < self.rho or self.c1 <= 0 or self.delta <= 0:
            raise ParameterError("need rho > 1, c2 >= rho, c1 > 0, delta > 0")
        if self.horizon < 1 or self.ordinal_cap < 1:
            raise ParameterError("horizon and ordinal cap must be positive")
        object.__setattr__(self, "schedule",
                           tuple((str(k), int(v)) for k, v in self.schedule))

    @property
    def search_cap(self) -> int:
        """Largest matrix stage the amalgamation search may reach."""
        return 8 * self.horizon

    def to_json_obj(self):
        return {
            "rho": str(self.rho), "c1": str(self.c1), "c2": str(self.c2),
            "delta": str(self.delta), "horizon": self.horizon,
            "ordinal_cap": self.ordinal_cap, "dim_cap": self.dim_cap,
            "vertex_cap": self.vertex_cap, "seed": self.seed,
            "schedule": [[k, v] for k, v in self.schedule],
        }

    @staticmethod
    def from_json_obj(obj) -> "RunConfig":
        return RunConfig(
            rho=frac(obj.get("rho", "4")), c1=frac(obj.get("c1", "1")),
            c2=frac(obj.get("c2", "64")), delta=frac(obj.get("delta", "1/100")),
            horizon=int(obj.get("horizon", 512)),
            ordinal_cap=int(obj.get("ordinal_cap", 2)),
            dim_cap=int(obj.get("dim_cap", 12)),
            vertex_cap=int(obj.get("vertex_cap", 6)),
            seed=int(obj.get("seed", 0)),
            schedule=tuple((k, v) for k, v in obj.get("schedule", [])),
        )


def load_config(path=None) -> RunConfig:
    """Config from an explicit path, the QF_CONFIG env var, or defaults."""
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return RunConfig()
    return load_json(path, RunConfig.from_json_obj, "config file")
