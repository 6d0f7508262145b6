"""The work budget: one count of work units per computation.

`with work_limit(n):` opens one budget of n units shared by all the work in
the block, under one rule: every product of two polynomials spends one unit
per pair of terms (`rings._mul_into`, the one product kernel), and the engine
spends one per S-pair and reduction step.  WorkLimitExceeded is raised when
it runs out.  The budget lives in a ContextVar, so concurrent threads and
contexts each see their own; outside any block each computation that asks
for a budget gets a fresh one of DEFAULT_WORK_LIMIT units, whose message
names `symrees.work_limit`.  No message names a CLI flag: the CLI adds its
`--work-limit` hint where it reports the exception.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_WORK_LIMIT = 10 ** 6


class WorkLimitExceeded(RuntimeError):
    """The configured work budget ran out before the computation finished."""


class _Budget:
    __slots__ = ("left", "default")

    def __init__(self, limit, default=False):
        self.left = limit
        self.default = default   # a computation's own budget, outside any block

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            if self.default:
                raise WorkLimitExceeded(
                    f"work limit exceeded: the default budget of"
                    f" {DEFAULT_WORK_LIMIT} units ran out; choose a limit with"
                    f" `with symrees.work_limit(n):`")
            raise WorkLimitExceeded("work limit exceeded")


_BUDGET: ContextVar[_Budget | None] = ContextVar("symrees_budget", default=None)


@contextmanager
def work_limit(limit: int):
    """Share one budget of `limit` work units among the engine calls in the block.

    An inner block replaces an outer one while it lasts; a thread started
    inside a block starts with an empty context, so outside every block.
    """
    token = _BUDGET.set(_Budget(limit))
    try:
        yield
    finally:
        _BUDGET.reset(token)


def _budget() -> _Budget:
    budget = _BUDGET.get()
    return _Budget(DEFAULT_WORK_LIMIT, default=True) if budget is None else budget
