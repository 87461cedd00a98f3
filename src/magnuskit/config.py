"""Run-wide tunables for the metric and conjugacy machinery."""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    """Exactness thresholds and search caps.

    travel_exact_max: largest path-TSP solved exactly (subset dynamic
        program), counted in travel points for the wreath travel cost and
        in flow-support components for the free-solvable connection cost;
        larger instances fall back to nearest-neighbour + 2-opt, which is
        exact when it meets the detour lower bound and carries an
        upper-bound flag otherwise.
    walk_node_cap: ceiling for the one exploration that measures the
        distances between flow-support components in the geodesic-length
        formula, counted in distinct Cayley vertices expanded over the whole
        connection cost.
    Conjugacy decisions recurse into the lamp and base groups and have no
    knob of their own.
    """

    travel_exact_max: int = 9
    walk_node_cap: int = 200_000

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


DEFAULT = RunConfig()
