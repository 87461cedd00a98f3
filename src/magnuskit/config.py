"""Run-wide tunables for the metric and conjugacy machinery."""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    """Exactness threshold.

    travel_exact_max: largest path-TSP solved exactly (subset dynamic
        program), counted in travel points for the wreath travel cost and
        in flow-support components for the free-solvable connection cost;
        larger instances fall back to nearest-neighbour + 2-opt, which is
        exact when it meets the detour lower bound and carries an
        upper-bound flag otherwise.
    The distances between flow-support components come from the base's word
    metric, and conjugacy decisions recurse into the lamp and base groups;
    neither has a knob of its own.
    """

    travel_exact_max: int = 9

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


DEFAULT = RunConfig()
