"""Fixtures shared by several test modules."""

from __future__ import annotations

from functools import lru_cache

import pytest

from hyperspec.analysis import cospectral_invariant_scan


@pytest.fixture(scope="session")
def universe_scan(tmp_path_factory):
    """scan(n, k) -> (report, checkpoint path): one checkpointed
    cospectral_invariant_scan per (n, k) and session.  Loading the
    checkpoint gives each caller its own cache, holding the
    characteristic polynomial of every class."""

    @lru_cache(maxsize=None)
    def scan(n, k):
        path = str(tmp_path_factory.mktemp(f"universe_n{n}k{k}") / "scan.json")
        return cospectral_invariant_scan(n, k, checkpoint_path=path), path

    return scan
