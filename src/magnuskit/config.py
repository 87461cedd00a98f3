"""The run's exactness threshold, in one context variable that
wreath.path_tsp alone reads.  ``using(cfg)`` puts a config in force for a
block, as decimal.localcontext does; elsewhere, and in a thread started
inside one, DEFAULT is in force.  No cached result depends on it: the
caches are handles, Magnus forms, coset tables and PermHandle's table."""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """Exactness threshold, for every level of a computation in its block.

    travel_exact_max: largest path-TSP solved exactly (subset dynamic
        program), a non-negative integer counted in travel points for the
        wreath travel cost and in flow-support components for the
        connection cost over Z^r (d = 2); larger instances fall back to
        nearest-neighbour + 2-opt, which is exact when it meets the detour
        lower bound and carries an upper-bound flag otherwise.  At d = 2
        the program certifies the best path through the components, which
        can be longer than the true cost, the cheapest connecting forest;
        at d >= 3 the connection cost is a spanning tree and the threshold
        does not apply.
    Component distances (the base's word metric) and conjugacy decisions
    have no knob of their own.
    """

    travel_exact_max: int = 9

    def __post_init__(self):
        v = self.travel_exact_max
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"travel_exact_max must be a non-negative integer, not {v!r}")


DEFAULT = RunConfig()
_current = ContextVar("magnuskit_config", default=DEFAULT)
current = _current.get  # the RunConfig in force


@contextmanager
def using(cfg: RunConfig):
    """Put cfg in force for the block."""
    token = _current.set(cfg)
    try:
        yield
    finally:
        _current.reset(token)
