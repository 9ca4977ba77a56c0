"""Run-wide knobs, all defaulted so that library calls need no setup.

Every cap exists to keep exact arithmetic from silently starting a
multi-day computation; callers raise the caps deliberately.  The prime
seed offsets the deterministic modulus list from which every exact value
is recombined (modular.crt_values); any seed yields the same final
rational values, so it is a reproducibility control, not a correctness
one.  Every computation
runs in the calling thread; there is no worker-count knob.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputError

PRIME_SEED_ENV = "HYPERSPEC_PRIME_SEED"


@dataclass(frozen=True)
class RunConfig:
    degree_cap: int = 128
    dim_cap: int = 1024
    enumerate_cap: int = 63
    brute_force_cap: int = 2_000_000
    prime_seed: int = 0

    def with_(self, **changes) -> "RunConfig":
        return replace(self, **changes)


DEFAULT_CONFIG = RunConfig()


def config_from_env(base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else DEFAULT_CONFIG
    raw = os.environ.get(PRIME_SEED_ENV)
    if raw is not None:
        try:
            cfg = cfg.with_(prime_seed=int(raw))
        except ValueError as exc:
            raise InputError(f"{PRIME_SEED_ENV} must be an integer, got {raw!r}") from exc
    return cfg
