"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces magnuskit's public functions, at every name
their callers look them up by, with wrappers that record a span (name,
start, end, parent span, query) or bump a counter; ``uninstall()`` puts
the originals back.  Self time is a span's duration minus the time its
child spans cover, bookkeeping included, so the tracer's own cost lands in
the overhead figure rather than in a layer.  Spans stay in memory and are
written out when the run ends; the per-layer totals are kept for every
span, the raw spans only for the first ``max_spans``.
"""

import functools
import sys
from math import factorial
from time import perf_counter

from magnuskit import groups
from magnuskit.words import FreeWord

SPANS = [
    ("fox.projected_derivatives", "magnuskit.fox", "projected_derivatives"),
    ("magnus.magnus_embed", "magnuskit.magnus", "magnus_embed"),
    ("magnus.geodesic_length", "magnuskit.magnus", "geodesic_length"),
    ("magnus.connection", "magnuskit.magnus", "offsupport_connection_cost"),
    ("magnus.zero_one_search", "magnuskit.magnus", "_zero_one_distances"),
    ("wreath.travel_cost", "magnuskit.wreath", "travel_cost"),
    ("wreath.conjugacy_test", "magnuskit.wreath", "conjugacy_test"),
    ("wreath.conjugator_for_z", "magnuskit.wreath", "conjugator_for_z"),
    ("clf.distortion_scan", "magnuskit.clf", "distortion_scan"),
    ("clf.central_family_min_conjugator", "magnuskit.clf", "central_family_min_conjugator"),
    ("clf.z2_min_conjugator", "magnuskit.clf", "z2_min_conjugator"),
    ("clf.clf_scan", "magnuskit.clf", "clf_scan"),
    ("clf.first_witness_scan", "magnuskit.clf", "first_witness_scan"),
    ("cli.main", "magnuskit.cli", "main"),
]
COUNTERS = [
    ("ring.accumulate", "magnuskit.ring", "_accumulate"),
    ("wreath.w_multiply", "magnuskit.wreath", "w_multiply"),
    ("magnus.support_components", "magnuskit.magnus", "_support_components"),
    ("wreath.tsp_exact", "magnuskit.wreath", "_path_tsp_exact"),
    ("wreath.tsp_heuristic", "magnuskit.wreath", "_path_tsp_heuristic"),
]
CONJUGACY_CASES = (
    "order-mismatch", "projection-mismatch", "inert-base",
    "inert-base-scan-exhausted", "scan", "scan-exhausted",
)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def _handle_classes():
    todo, seen = [groups.GroupHandle], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    def __init__(self, max_spans=20_000):
        self.max_spans = max_spans
        self.spans = []  # (id, parent id, query, name, start, end)
        self.totals = {}  # name -> [calls, self seconds]
        self.counts = {}
        self.maxima = {}
        self.query = None
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._patches = []
        self._components = 0

    # -- recording --------------------------------------------------------

    def count(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def _span(self, name, call):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return call()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            tot = self.totals.setdefault(name, [0, 0.0])
            tot[0] += 1
            tot[1] += (t1 - t0) - frame[1]
            if len(self.spans) < self.max_spans:
                self.spans.append((sid, parent[0] if parent else None, self.query, name, t0, t1))
            if parent:
                parent[1] += perf_counter() - t0

    def _wrap_span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(name, lambda: fn(*args, **kwargs))
            if after:
                after(args, result)
            return result

        return wrapper

    def _wrap_count(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            result = fn(*args, **kwargs)
            if after:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """ball_layers is a generator: each resumption is a span, and the
        yielded shells count as elements."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = self._span(name, lambda: next(gen))
                    except StopIteration:
                        return
                    self.count(name + ".elements", len(item[1]))
                    yield item
            finally:
                gen.close()

        return wrapper

    # -- hooks that turn boundary arguments and results into work counts --

    def _after_embed(self, args, result):
        self.count(f"magnus.magnus_embed.calls.d{getattr(args[1], 'd', 1)}")

    def _after_derivatives(self, args, result):
        self.count("fox.projected_derivatives.letters", len(args[0].letters))

    def _after_components(self, args, result):
        self._components = len(result[0])
        self.peak("magnus.connection.components_max", self._components)

    def _after_connection(self, args, result):
        m, self._components = self._components, 0
        if result.exact and m >= 2:
            self.count("magnus.connection.orders", factorial(m) // 2)

    def _after_tsp_exact(self, args, result):
        n = args[0]
        self.count("wreath.travel_cost.dp_states", n * 2**n)
        self.peak("wreath.travel_cost.points_max", n)

    def _after_tsp_heuristic(self, args, result):
        self.peak("wreath.travel_cost.points_max", args[0])

    def _after_conjugacy(self, args, result):
        self.count(f"wreath.conjugacy_test.case.{result.case}")

    def _after_conjugator(self, args, result):
        if result is not None:
            self.count("wreath.conjugator_for_z.hits")

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Swap ``original`` for ``wrapper`` under every magnuskit name bound to it."""
        for modname, mod in list(sys.modules.items()):
            if modname == "magnuskit" or modname.startswith("magnuskit."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def install(self):
        import magnuskit.cli  # noqa: F401  (loads clf too, so their imported names get patched)

        after = {
            "fox.projected_derivatives": self._after_derivatives,
            "magnus.magnus_embed": self._after_embed,
            "magnus.connection": self._after_connection,
            "wreath.conjugacy_test": self._after_conjugacy,
            "wreath.conjugator_for_z": self._after_conjugator,
            "magnus.support_components": self._after_components,
            "wreath.tsp_exact": self._after_tsp_exact,
            "wreath.tsp_heuristic": self._after_tsp_heuristic,
        }
        for name, modname, attr in SPANS:
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self._wrap_span(name, fn, after.get(name)))
        for name, modname, attr in COUNTERS:
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self._wrap_count(name, fn, after.get(name)))
        self._replace_everywhere(groups.ball_layers, self._wrap_generator("groups.ball_layers", groups.ball_layers))

        mul = FreeWord.__mul__
        self._patches.append((FreeWord, "__mul__", mul))
        FreeWord.__mul__ = self._wrap_span("words.mul", mul)
        for cls in _handle_classes():
            for attr in ("coset_key", "distance"):
                if attr in vars(cls):
                    fn = vars(cls)[attr]
                    self._patches.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap_count(f"groups.{attr}", fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values under the metric names the benchmark declares."""
        t, c, mx = self.totals, self.counts, self.maxima

        def calls(name):
            return t.get(name, [0, 0.0])[0]

        def self_s(name):
            return t.get(name, [0, 0.0])[1]

        out = {
            "fox.projected_derivatives.calls": calls("fox.projected_derivatives"),
            "fox.projected_derivatives.letters": c.get("fox.projected_derivatives.letters", 0),
            "fox.projected_derivatives.self_s": self_s("fox.projected_derivatives"),
            "ring.accumulate.calls": c.get("ring.accumulate.calls", 0),
            "words.mul.calls": calls("words.mul"),
            "words.mul.self_s": self_s("words.mul"),
        }
        for d in (1, 2, 3):
            out[f"magnus.magnus_embed.calls.d{d}"] = c.get(f"magnus.magnus_embed.calls.d{d}", 0)
        travel_calls = calls("wreath.travel_cost")
        conj_calls = calls("wreath.conjugator_for_z")
        hits = c.get("wreath.conjugator_for_z.hits", 0)
        out.update({
            "magnus.magnus_embed.self_s": self_s("magnus.magnus_embed"),
            "magnus.geodesic_length.calls": calls("magnus.geodesic_length"),
            "magnus.geodesic_length.self_s": self_s("magnus.geodesic_length"),
            "magnus.connection.components_max": mx.get("magnus.connection.components_max", 0),
            "magnus.connection.orders": c.get("magnus.connection.orders", 0),
            "magnus.connection.self_s": self_s("magnus.connection"),
            "magnus.zero_one_search.self_s": self_s("magnus.zero_one_search"),
            "wreath.travel_cost.calls": travel_calls,
            "wreath.travel_cost.points_max": mx.get("wreath.travel_cost.points_max", 0),
            "wreath.travel_cost.dp_states": c.get("wreath.travel_cost.dp_states", 0),
            "wreath.travel_cost.exact_share": (
                1 - c.get("wreath.tsp_heuristic.calls", 0) / travel_calls if travel_calls else 1.0
            ),
            "wreath.travel_cost.self_s": self_s("wreath.travel_cost"),
            "groups.ball_layers.elements": c.get("groups.ball_layers.elements", 0),
            "groups.ball_layers.self_s": self_s("groups.ball_layers"),
            "groups.coset_key.calls": c.get("groups.coset_key.calls", 0),
            "groups.distance.calls": c.get("groups.distance.calls", 0),
            "wreath.conjugacy_test.calls": calls("wreath.conjugacy_test"),
            "wreath.conjugacy_test.self_s": self_s("wreath.conjugacy_test"),
        })
        for case in CONJUGACY_CASES:
            out[f"wreath.conjugacy_test.case.{case}"] = c.get(f"wreath.conjugacy_test.case.{case}", 0)
        out.update({
            "wreath.conjugator_for_z.calls": conj_calls,
            "wreath.conjugator_for_z.hits": hits,
            "wreath.conjugator_for_z.hit_ratio": hits / conj_calls if conj_calls else 0.0,
            "wreath.conjugator_for_z.self_s": self_s("wreath.conjugator_for_z"),
            "wreath.w_multiply.calls": c.get("wreath.w_multiply.calls", 0),
        })
        for name, _, _ in SPANS:
            if name.startswith("clf."):
                out[name + ".self_s"] = self_s(name)
        out["cli.main.calls"] = calls("cli.main")
        out["cli.main.self_s"] = self_s("cli.main")
        return out

