"""Deterministic response strategies for local-hidden-state models."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import List, Tuple

import numpy as np

MAX_STRATEGIES = 4096


@dataclass(frozen=True)
class DeterministicStrategy:
    """One deterministic assignment of an outcome to every setting.

    ``outcomes[x]`` is the outcome this strategy answers for setting x.
    The index encodes the outcomes base-o with the first setting as the
    most significant digit: index 5 with 2 outcomes and 3 settings means
    outcomes (1, 0, 1).
    """

    index: int
    outcomes: Tuple[int, ...]

    def selects(self, outcome: int, setting: int) -> bool:
        return self.outcomes[setting] == outcome


def enumerate_strategies(n_settings: int, n_outcomes: int) -> List[DeterministicStrategy]:
    """All n_outcomes^n_settings deterministic strategies, index order."""
    if n_settings < 1 or n_outcomes < 1:
        raise ValueError("need at least one setting and one outcome")
    total = n_outcomes ** n_settings
    if total > MAX_STRATEGIES:
        raise ValueError(
            f"{n_outcomes}^{n_settings} = {total} strategies exceeds the "
            f"cap of {MAX_STRATEGIES}; this is past any sensible witness")
    out = []
    for index in range(total):
        digits = []
        rem = index
        for pos in range(n_settings - 1, -1, -1):
            base = n_outcomes ** pos
            digits.append(rem // base)
            rem %= base
        out.append(DeterministicStrategy(index, tuple(digits)))
    return out


@cache
def selection(n_settings: int, n_outcomes: int):
    """The 0/1 map from strategies to members and its pseudoinverse.

    Members are flattened setting-major, r = x * n_outcomes + a.  Returns
    ``(a_mat, pinv)``: ``a_mat[r, lam]`` is 1 exactly for the strategies
    that answer a to setting x, and ``pinv`` is the Moore-Penrose
    pseudoinverse of ``a_mat``.  Cached per scenario shape; the arrays
    are read-only.
    """
    strategies = enumerate_strategies(n_settings, n_outcomes)
    a_mat = np.zeros((n_settings * n_outcomes, len(strategies)))
    for strat in strategies:
        for x, a in enumerate(strat.outcomes):
            a_mat[x * n_outcomes + a, strat.index] = 1.0
    pinv = np.linalg.pinv(a_mat)
    a_mat.flags.writeable = False
    pinv.flags.writeable = False
    return a_mat, pinv
