"""Run configuration shared by the forcing pipeline, the geometry pipeline
and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import ParameterError
from .jsonio import load_json
from .linalg import check_int, frac

ENV_CONFIG = "QF_CONFIG"
# the largest horizon: a stage reaches at most horizon + search_cap =
# 9 * horizon, and the criterion-7 forge at 4096 takes 0.4 s on 2 vCPUs
MAX_HORIZON = 4096
_RATIONAL = ("rho", "c1", "c2", "delta")


@dataclass(frozen=True)
class RunConfig:
    rho: Fraction = Fraction(4)
    c1: Fraction = Fraction(1)
    c2: Fraction = Fraction(64)
    delta: Fraction = Fraction(1, 100)
    horizon: int = 512

    def __post_init__(self):
        for name in _RATIONAL:
            object.__setattr__(self, name, frac(getattr(self, name)))
        if not 1 <= check_int(self.horizon, "horizon") <= MAX_HORIZON:
            raise ParameterError("horizon %d is not in [1, %d]" % (self.horizon, MAX_HORIZON))
        if self.rho <= 1 or self.c2 < self.rho or self.c1 <= 0 or self.delta <= 0:
            raise ParameterError("need rho > 1, c2 >= rho, c1 > 0, delta > 0")

    @property
    def search_cap(self) -> int:
        """The stage search tries max(n, big_n) + 2^k while n + 2^k <=
        search_cap, so a D hit may reach the stage horizon + search_cap."""
        return 8 * self.horizon

    def to_json_obj(self):
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj.update({name: str(obj[name]) for name in _RATIONAL})
        return obj

    @staticmethod
    def from_json_obj(obj) -> "RunConfig":
        """Keys that name no field are ignored; a missing field keeps its
        default."""
        names = {f.name for f in fields(RunConfig)}
        return RunConfig(**{k: v for k, v in obj.items() if k in names})


def _read_fields(obj) -> dict:
    """The fields obj names, read as rationals and the horizon as an int:
    load_json calls a config malformed for these reads alone."""
    given = dict(obj.items())  # a JSON array or number has no items
    return {k: check_int(given[k], k) if k == "horizon" else frac(given[k])
            for k in _RATIONAL + ("horizon",) if k in given}


def load_config(path=None) -> RunConfig:
    """Config from an explicit path, the QF_CONFIG env var, or defaults."""
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return RunConfig()
    # a missed bound is its own error line, as for family and run files
    return RunConfig.from_json_obj(load_json(path, _read_fields, "config file"))
