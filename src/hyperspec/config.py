"""Run-wide knobs, all defaulted so that library calls need no setup.

RunConfig holds the knobs a caller sets.  The degree and Macaulay
dimension caps keep exact arithmetic from silently starting a multi-day
computation; callers raise them deliberately.  The other caps are
constants: hypergraph.MAX_EDGE_SLOTS, analysis.BRUTE_FORCE_CAP and
modular.MAX_PRIMES.  The prime seed offsets the deterministic list of
MAX_PRIMES moduli from which every exact value is recombined
(modular.crt_values); any seed yields the same final rational values,
so it is a reproducibility control, not a correctness one.  Entry
points default to DEFAULT_CONFIG; derive another with dataclasses.replace.
No thread is started but numpy's BLAS's, for large float64 products.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputError
from .rational import parse_int

PRIME_SEED_ENV = "HYPERSPEC_PRIME_SEED"


@dataclass(frozen=True)
class RunConfig:
    degree_cap: int = 128
    dim_cap: int = 1024
    prime_seed: int = 0


DEFAULT_CONFIG = RunConfig()


def config_from_env(base: RunConfig = DEFAULT_CONFIG) -> RunConfig:
    raw = os.environ.get(PRIME_SEED_ENV)
    if raw is None:
        return base
    try:
        return replace(base, prime_seed=parse_int(raw.strip()))
    except ValueError as exc:
        raise InputError(f"{PRIME_SEED_ENV} must be an integer, got {raw!r}") from exc
