"""Run-wide tunables for the metric and conjugacy machinery."""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    """Exactness threshold.

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
    The distances between flow-support components come from the base's word
    metric, and conjugacy decisions recurse into the lamp and base groups;
    neither has a knob of its own.
    """

    travel_exact_max: int = 9

    def __post_init__(self):
        v = self.travel_exact_max
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"travel_exact_max must be a non-negative integer, not {v!r}")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


DEFAULT = RunConfig()
