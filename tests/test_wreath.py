import hashlib
import itertools
import json
import random

import pytest

from magnuskit import wreath
from magnuskit.config import DEFAULT
from magnuskit.errors import BeyondCapError
from magnuskit.clf import random_wreath_element
from magnuskit.groups import (
    FreeHandle,
    HeisenbergHandle,
    PermHandle,
    ZNHandle,
    ZrHandle,
    ball_layers,
    enumerate_finite,
)
from magnuskit.wreath import (
    FormKey,
    Measure,
    WreathGroup,
    base_generator,
    base_part_candidates,
    conjugacy_test,
    conjugator_for_z,
    conjugators,
    element_from_json,
    element_to_json,
    identity_element,
    is_inert,
    lamp_generator,
    pi_projection,
    step_conjugators,
    travel_cost,
    upper_bound_formula,
    w_conjugate,
    w_invert,
    w_length,
    w_length_floor,
    w_multiply,
    w_power,
    wreath_element,
)
from magnuskit.magnus import solvable_group
from magnuskit.words import random_word

Z = ZrHandle(1)
Z2 = ZrHandle(2)


def lamplighter():
    return WreathGroup(Z, Z)


def _rand_elem(G, rng, steps=5):
    gens = [g for _, g in G.gen_steps()]
    acc = G.identity
    for _ in range(rng.randint(0, steps)):
        acc = w_multiply(acc, rng.choice(gens))
    return acc


# -- arithmetic ---------------------------------------------------------------


def test_multiplication_examples():
    u = base_generator(Z, Z, (1,))
    v = base_generator(Z, Z, (2,))
    assert w_multiply(u, v).b == (3,)
    assert not w_multiply(u, v).f

    # lamp at 0, move 1 times lamp at 0: lamps at 0 and 1
    a = wreath_element(Z, Z, [((0,), (1,))], (1,))
    b = wreath_element(Z, Z, [((0,), (1,))], (0,))
    prod = w_multiply(a, b)
    assert prod.b == (1,)
    assert prod.lamp_at((0,)) == (1,) and prod.lamp_at((1,)) == (1,)


def test_inverse_law():
    rng = random.Random(41)
    G = lamplighter()
    for _ in range(100):
        u = _rand_elem(G, rng)
        assert w_multiply(u, w_invert(u)).is_identity
        assert w_multiply(w_invert(u), u).is_identity


def test_conjugate_is_group_conjugation():
    rng = random.Random(42)
    G = lamplighter()
    for _ in range(50):
        u, g = _rand_elem(G, rng), _rand_elem(G, rng)
        lhs = w_multiply(u, g)
        rhs = w_multiply(g, w_conjugate(u, g))
        assert lhs == rhs


def test_group_mismatch_rejected():
    u = identity_element(Z, Z)
    v = identity_element(Z, Z2)
    with pytest.raises(ValueError):
        w_multiply(u, v)


def test_shared_handles_are_compared_without_descriptions(monkeypatch):
    # the handle check runs in every product; operands that share their
    # handle objects must not pay for building describe() dicts
    calls = []
    describe = ZrHandle.describe

    def counting(self):
        calls.append(1)
        return describe(self)

    monkeypatch.setattr(ZrHandle, "describe", counting)
    u = lamp_generator(Z, Z2, (1,))
    v = base_generator(Z, Z2, (0, 1))
    w_multiply(u, v)
    assert calls == []
    # equal handles that are distinct objects still compare by description
    w_multiply(u, base_generator(ZrHandle(1), ZrHandle(2), (0, 1)))
    assert calls


# -- travel cost and length -----------------------------------------------------


def test_travel_cost_examples():
    assert travel_cost(Z, [], (4,)).value == 4
    assert travel_cost(Z, [(0,), (3,)], (0,)) == Measure(6, True, 6)
    assert travel_cost(Z2, [(1, 0), (0, 1)], (0, 0)).value == 4


def _brute_path_tsp(B, points, b):
    e = B.identity
    best = None
    for order in itertools.permutations(points):
        cost = 0
        cur = e
        for p in order:
            cost += B.distance(cur, p)
            cur = p
        cost += B.distance(cur, b)
        best = cost if best is None else min(best, cost)
    return best if best is not None else B.distance(e, b)


def test_travel_cost_against_permutation_oracle():
    rng = random.Random(43)
    for _ in range(120):
        pts = [
            (rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))
        ]
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        got = travel_cost(Z2, pts, b)
        assert got.exact
        assert got.value == _brute_path_tsp(Z2, list(dict.fromkeys(pts)), b)


def test_path_tsp_kernel_against_permutations():
    from magnuskit.wreath import _path_tsp_exact

    rng = random.Random(29)
    for n in range(1, 8):
        for free_ends in (True, False):
            for _ in range(6):
                D = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        D[i][j] = D[j][i] = rng.randint(0, 9)
                d0, dend = ([0 if free_ends else rng.randint(0, 9) for _ in range(n)] for _ in "ab")
                brute = min(
                    d0[o[0]] + sum(D[a][b] for a, b in zip(o, o[1:])) + dend[o[-1]]
                    for o in itertools.permutations(range(n))
                )
                assert _path_tsp_exact(n, d0, D, dend) == brute


def _metric_path_instance(rng):
    """A path-TSP instance whose legs obey the triangle inequality: L1
    distances of points in a thin box of Z^2 (often near a line), or the
    shortest-path closure of random edge weights; start and end are free
    in about a third of them."""
    n = rng.randint(1, 9)
    if rng.random() < 0.5:
        w = rng.choice([0, 1, 3])
        pts = [(rng.randint(-6, 6), rng.randint(-w, w)) for _ in range(n + 2)]
        d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]
    else:
        d = [[0] * (n + 2) for _ in range(n + 2)]
        for i, j in itertools.combinations(range(n + 2), 2):
            d[i][j] = d[j][i] = rng.randint(1, 9)
        for k, i, j in itertools.product(range(n + 2), repeat=3):
            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    free = rng.random() < 0.3
    d0 = [0] * n if free else d[0][1 : n + 1]
    dend = [0] * n if free else d[n + 1][1 : n + 1]
    return n, d0, [row[1 : n + 1] for row in d[1 : n + 1]], dend


def test_path_tsp_certifies_only_optimal_values():
    # past the subset DP a value is exact only when it meets the detour
    # bound, so every certified value is the optimum and the bound is sound
    from magnuskit.wreath import _path_tsp_exact, path_tsp

    rng = random.Random(17)
    cfg = DEFAULT.with_(travel_exact_max=3)
    beyond = set()
    for _ in range(300):
        n, d0, D, dend = _metric_path_instance(rng)
        got = path_tsp(d0, D, dend, cfg)
        best = _path_tsp_exact(n, d0, D, dend)
        assert got.lower <= best <= got.value
        if got.exact:
            assert got.value == best
        if n > cfg.travel_exact_max:
            beyond.add(got.exact)
    assert beyond == {True, False}


def test_path_tsp_equals_the_dp_within_the_exact_range():
    # within travel_exact_max every value is the optimum, fixed or free
    # endpoints, whether the heuristic met its bound or the DP ran
    from magnuskit.wreath import _path_tsp_exact, path_tsp

    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        n, d0, D, dend = _metric_path_instance(rng)
        got = path_tsp(d0, D, dend, DEFAULT)
        assert got == Measure.exactly(_path_tsp_exact(n, d0, D, dend))
        seen.add((n, not any(d0)))
    assert {free for n, free in seen if n > 3} == {True, False}


def test_a_certified_path_runs_no_dp(monkeypatch):
    calls = []
    solve = wreath._path_tsp_exact

    def counting(*args):
        calls.append(args[0])
        return solve(*args)

    monkeypatch.setattr(wreath, "_path_tsp_exact", counting)
    # five points on the segment from e = 0 to b = 9: the walk along it
    # meets the detour bound d0 + dend = 9
    pts = [2, 7, 4, 9, 1]
    D = [[abs(p - q) for q in pts] for p in pts]
    assert wreath.path_tsp(pts, D, [9 - p for p in pts]) == Measure.exactly(9)
    assert calls == []
    # the four corners of a unit square from a free start: the bound is 2
    # (a diagonal), the optimum 3, so the DP decides
    corners = [(0, 0), (0, 1), (1, 1), (1, 0)]
    D = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in corners] for p in corners]
    assert wreath.path_tsp([0] * 4, D, [0] * 4) == Measure.exactly(3)
    assert calls == [4]


def _reference_heuristic(n, d0, D, dend) -> int:
    # the pair-at-a-time nearest-neighbour + 2-opt path that path_tsp's
    # row-walking heuristic must reproduce comparison for comparison
    order = []
    left = set(range(n))
    cur = None
    while left:
        nxt = min(left, key=lambda j: (d0[j] if cur is None else D[cur][j], j))
        order.append(nxt)
        left.remove(nxt)
        cur = nxt

    improved = True
    passes = 0
    while improved and passes < 80:
        improved = False
        passes += 1
        for i in range(n - 1):
            for j in range(i + 1, n):
                before = d0[order[i]] if i == 0 else D[order[i - 1]][order[i]]
                after = dend[order[j]] if j == n - 1 else D[order[j]][order[j + 1]]
                nbefore = d0[order[j]] if i == 0 else D[order[i - 1]][order[j]]
                nafter = dend[order[i]] if j == n - 1 else D[order[i]][order[j + 1]]
                if nbefore + nafter < before + after:
                    order[i : j + 1] = order[i : j + 1][::-1]
                    improved = True
    total = d0[order[0]] + dend[order[-1]]
    for a, b2 in zip(order, order[1:]):
        total += D[a][b2]
    return total


def _reference_detour_bound(n, d0, D, dend) -> int:
    lower = max(d0[i] + dend[i] for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            lower = max(lower, D[i][j] + min(d0[i] + dend[j], d0[j] + dend[i]))
    return lower


def _large_metric_path_instance(rng):
    """A path-TSP instance of 10-70 points: L1 distances in a box of Z^2,
    thin or small enough that many legs tie (points may coincide), or for
    up to 30 points the shortest-path closure of random edge weights; start
    and end are free in about a third of them."""
    n = rng.randint(10, 70)
    if n <= 30 and rng.random() < 0.3:
        d = [[0] * (n + 2) for _ in range(n + 2)]
        for i, j in itertools.combinations(range(n + 2), 2):
            d[i][j] = d[j][i] = rng.randint(1, 9)
        for k, i, j in itertools.product(range(n + 2), repeat=3):
            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    else:
        s, w = rng.choice([4, 8, 20]), rng.choice([0, 1, 3])
        pts = [(rng.randint(-s, s), rng.randint(-w, w)) for _ in range(n + 2)]
        d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]
    free = rng.random() < 0.3
    d0 = [0] * n if free else d[0][1 : n + 1]
    dend = [0] * n if free else d[n + 1][1 : n + 1]
    return n, d0, [row[1 : n + 1] for row in d[1 : n + 1]], dend


def test_path_tsp_heuristic_matches_the_pairwise_reference():
    # the row-walking detour bound and heuristic make the same comparisons
    # in the same order as the pair-at-a-time references, tie-breaks included
    from magnuskit.wreath import path_tsp

    rng = random.Random(23)
    exact = set()
    for _ in range(300):
        n, d0, D, dend = _large_metric_path_instance(rng)
        h = _reference_heuristic(n, d0, D, dend)
        lo = _reference_detour_bound(n, d0, D, dend)
        got = path_tsp(d0, D, dend, DEFAULT)
        assert got == Measure(h, h == lo, lo)
        exact.add(got.exact)
    assert exact == {True, False}


def test_travel_cost_reads_rows(monkeypatch):
    # over Z^2 the legs from e and the matrix come from ZrHandle.distances
    # rows, m points making m + 1 rows; only the m legs into b are single
    # distance calls
    calls = {"distance": 0, "distances": 0}

    def count(name):
        fn = getattr(ZrHandle, name)

        def wrapped(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(ZrHandle, name, count(name))
    pts = [(i, (i * 7) % 5 - 2) for i in range(-6, 6)]
    travel_cost(Z2, pts, (3, 3))
    assert calls == {"distance": len(pts), "distances": len(pts) + 1}


def test_travel_legs_into_b_read_d_p_b():
    # a wreath metric's exact flag depends on direction: u travels its 11
    # points from e to (6, 1) and path_tsp's heuristic misses the bound,
    # while u^-1 travels them back and meets it.  With p a base move and
    # b = p u^-1, d(b, p) = |u| raises and d(p, b) = |u^-1| = 26 is exact;
    # travel and its floor read the leg as d(p, b), so neither raises
    B = WreathGroup(Z, Z2)
    support = [(-2, 1), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (2, 0), (2, 1)]
    u = wreath_element(Z, Z2, [(q, (1,)) for q in support], (6, 1))
    assert (w_length(u), w_length(w_invert(u))) == (Measure(30, False, 26), Measure.exactly(26))
    p = base_generator(Z, Z2, (1, 0))
    b = w_multiply(p, w_invert(u))
    with pytest.raises(BeyondCapError):
        B.distance(b, p)
    assert B.distance(p, b) == 26
    assert travel_cost(B, [p], b) == Measure.exactly(27)
    w = wreath_element(Z, B, [(p, (1,))], b)
    assert w_length_floor(w) == 28
    assert w_length(w) == Measure.exactly(28)


def test_travel_cost_heisenberg_base():
    # non-abelian base distances feed the same subset DP
    from magnuskit.groups import HeisenbergHandle

    H = HeisenbergHandle()
    rng = random.Random(51)
    gens = [g for _, g in H.gen_steps()]
    for _ in range(40):
        pts = []
        for _ in range(rng.randint(0, 4)):
            acc = H.identity
            for _ in range(rng.randint(0, 3)):
                acc = H.multiply(acc, rng.choice(gens))
            pts.append(acc)
        b = H.identity
        got = travel_cost(H, pts, b)
        assert got.exact
        assert got.value == _brute_path_tsp(H, list(dict.fromkeys(pts)), b)


def test_travel_cost_upper_bound_mode():
    pts = [(i, (i * 7) % 5 - 2) for i in range(-6, 6)]  # 12 points > default 9
    got = travel_cost(Z2, pts, (0, 0))
    assert not got.exact
    assert got.lower <= got.value
    exact = travel_cost(Z2, pts, (0, 0), DEFAULT.with_(travel_exact_max=12))
    assert exact.exact
    assert got.lower <= exact.value <= got.value


def test_length_examples():
    assert w_length(base_generator(Z, Z, (4,))).value == 4
    u = wreath_element(Z, Z, [((0,), (1,)), ((3,), (1,))], (0,))
    assert w_length(u) == Measure(8, True, 8)
    assert w_length(lamp_generator(Z, Z, (1,))).value == 1
    assert w_length(identity_element(Z, Z)).value == 0


def test_length_matches_bfs_small():
    G = lamplighter()
    for dist, layer in ball_layers(G, 3):
        for _, u in layer:
            assert w_length(u).value == dist


# -- coset projections -----------------------------------------------------------


def test_pi_projection_examples():
    u = wreath_element(Z, Z, [((0,), (1,)), ((2,), (1,))], (2,))
    assert pi_projection(u, (0,)) == (2,)
    assert pi_projection(u, (1,)) == (0,)  # empty coset product
    # shifting by z relabels the supports
    v = wreath_element(Z, Z, [((1,), (1,)), ((3,), (1,))], (2,))
    assert pi_projection(v, (0,), z=(-1,)) == (2,)
    assert pi_projection(v, (1,), z=(-1,)) == (0,)


def test_pi_projection_finite_order():
    Z4 = ZNHandle(4)
    u = wreath_element(Z, Z4, [(0, (1,)), (2, (1,))], 2)
    assert pi_projection(u, 0) == (2,)
    assert pi_projection(u, 1) == (0,)


# -- conjugator construction ------------------------------------------------------


def test_conjugator_identity_pair():
    u = wreath_element(Z, Z, [((0,), (1,))], (1,))
    w = conjugator_for_z(u, u, (0,))
    assert w is not None and w.b == (0,)


def test_conjugator_translate_pair():
    u = wreath_element(Z, Z, [((0,), (1,))], (1,))
    v = wreath_element(Z, Z, [((1,), (1,))], (1,))
    w = conjugator_for_z(u, v, (0,))
    assert w is not None
    assert w_multiply(u, w) == w_multiply(w, v)


def test_conjugator_absent_on_projection_mismatch():
    u = wreath_element(Z, Z, [((0,), (1,))], (0,))
    v = wreath_element(Z, Z, [((0,), (2,))], (0,))
    for z in range(-4, 5):
        assert conjugator_for_z(u, v, (z,)) is None


def test_conjugator_absent_when_a_projecting_coset_is_unmatched():
    # u projects nontrivially on two cosets of <b> and v on one: whichever
    # way round, some nontrivial coset meets no partner, at every base part
    u = wreath_element(Z, Z2, [((0, 0), (1,)), ((0, 1), (1,))], (1, 0))
    v = wreath_element(Z, Z2, [((0, 0), (1,))], (1, 0))
    for z in [(i, j) for i in range(-2, 3) for j in range(-2, 3)]:
        assert conjugator_for_z(u, v, z) is None
        assert conjugator_for_z(v, u, z) is None
    assert not conjugacy_test(u, v) and not conjugacy_test(v, u)


def test_conjugator_requires_intertwining_base_parts():
    u = wreath_element(Z, Z, [((0,), (1,))], (1,))
    v = wreath_element(Z, Z, [((0,), (1,))], (2,))
    assert conjugator_for_z(u, v, (0,)) is None  # bz != zc


def test_conjugator_random_constructed_pairs():
    rng = random.Random(44)
    G = WreathGroup(Z, Z2)
    for _ in range(100):
        u = _rand_elem(G, rng)
        gamma = _rand_elem(G, rng)
        v = w_conjugate(u, gamma)
        w = conjugator_for_z(u, v, gamma.b)
        assert w is not None
        assert w_multiply(u, w) == w_multiply(w, v)


def test_pi_invariance_for_conjugate_pairs():
    """When (h, z) conjugates u to v (infinite-order base parts), the coset
    products of u match the z-shifted coset products of v on every coset
    meeting either support."""
    rng = random.Random(49)
    B = Z2
    for _ in range(60):
        G = WreathGroup(Z, B)
        u = _rand_elem(G, rng)
        if B.order(u.b) is not None:
            continue
        gamma = _rand_elem(G, rng)
        v = w_conjugate(u, gamma)
        z = gamma.b
        reps = []
        for pos in [p for p, _ in u.f.values()] + [B.multiply(z, p) for p, _ in v.f.values()]:
            if all(B.power_membership(B.multiply(pos, B.invert(t)), u.b) is None for t in reps):
                reps.append(pos)
        for t in reps:
            assert pi_projection(u, t) == pi_projection(v, t, z=z)


# -- full conjugacy decision -------------------------------------------------------


def minimal_conjugator(u, v, z_radius, config=DEFAULT):
    """The radius-bounded brute-force reference: scan every base part in
    ball(B, z_radius) and return the shortest verified conjugator with its
    length, or None."""
    B = u.base
    best = None
    for _, layer in ball_layers(B, z_radius):
        for _, z in layer:
            if B.key(B.multiply(u.b, z)) != B.key(B.multiply(z, v.b)):
                continue
            witness = conjugator_for_z(u, v, z)
            if witness is None:
                continue
            length = w_length(witness, config)
            if best is None or (length.value, witness.key()) < (best[1].value, best[0].key()):
                best = (witness, length)
    return best


def _brute_conjugate(G, u, v, radius):
    for _, layer in ball_layers(G, radius):
        for _, gamma in layer:
            if w_multiply(u, gamma) == w_multiply(gamma, v):
                return gamma
    return None


def test_conjugacy_inert_detection():
    u = wreath_element(Z, Z, [((0,), (1,)), ((1,), (-1,))], (1,))
    assert is_inert(u)
    assert not is_inert(wreath_element(Z, Z, [((0,), (1,))], (1,)))


def test_conjugacy_matches_brute_force_sampled():
    rng = random.Random(45)
    G = lamplighter()
    elements = [u for _, layer in ball_layers(G, 2) for _, u in layer]
    for _ in range(150):
        u, v = rng.choice(elements), rng.choice(elements)
        res = conjugacy_test(u, v)
        brute = _brute_conjugate(G, u, v, 4)
        assert res.conjugate == (brute is not None)
        if res.conjugate:
            assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


def test_conjugacy_decision_is_symmetric():
    rng = random.Random(50)
    G = WreathGroup(Z, Z2)
    for _ in range(60):
        u = _rand_elem(G, rng, steps=4)
        v = _rand_elem(G, rng, steps=4)
        assert conjugacy_test(u, v).conjugate == conjugacy_test(v, u).conjugate


def test_conjugacy_finite_base_against_brute_force():
    # lamp Z/3, base Z/4: small enough to enumerate the whole group
    G = WreathGroup(ZNHandle(3), ZNHandle(4))
    everyone = [u for _, layer in ball_layers(G, None) for _, u in layer]
    assert len(everyone) == 3**4 * 4
    rng = random.Random(46)
    for _ in range(60):
        u, v = rng.choice(everyone), rng.choice(everyone)
        res = conjugacy_test(u, v)
        brute = any(
            w_multiply(u, g) == w_multiply(g, v) for g in everyone
        )
        assert res.conjugate == brute
        if res.conjugate:
            assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


def test_conjugacy_nonabelian_lamp():
    # finite-order base parts need lamp conjugators inside A = S3
    S3 = PermHandle(3)
    Z4 = ZNHandle(4)
    G = WreathGroup(S3, Z4)
    rng = random.Random(47)
    for _ in range(40):
        u = _rand_elem(G, rng, steps=4)
        gamma = _rand_elem(G, rng, steps=4)
        v = w_conjugate(u, gamma)
        res = conjugacy_test(u, v)
        assert res.conjugate
        assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


def test_conjugacy_lamp_free_pair_gets_trivial_witness():
    u = base_generator(Z, Z, (1,))
    res = conjugacy_test(u, u)
    assert res.conjugate and res.complete
    assert not res.witness.f and res.witness.b == (0,)


def test_conjugacy_order_mismatch_short_circuits():
    u = wreath_element(Z, ZNHandle(6), [], 2)  # order 3
    v = wreath_element(Z, ZNHandle(6), [], 3)  # order 2
    res = conjugacy_test(u, v)
    assert not res.conjugate and res.case == "order-mismatch"


def test_conjugacy_over_heisenberg_agrees_with_reference_scan():
    # a non-abelian infinite base: the support-aligned decision must find a
    # conjugator whenever the radius-bounded reference scan does
    H = HeisenbergHandle()
    G = WreathGroup(Z, H)
    rng = random.Random(61)
    pairs = 0
    while pairs < 60:
        u = _rand_elem(G, rng, steps=4)
        built = pairs % 2 == 0
        v = w_conjugate(u, _rand_elem(G, rng, steps=3)) if built else _rand_elem(G, rng, steps=4)
        if is_inert(u) or is_inert(v):
            continue
        pairs += 1
        res = conjugacy_test(u, v)
        assert res.complete
        if built or minimal_conjugator(u, v, z_radius=4) is not None:
            assert res.conjugate
        if res.conjugate:
            assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


@pytest.mark.parametrize("inner", [ZNHandle(2), Z], ids=["Z2wrZ", "ZwrZ"])
def test_conjugacy_over_wreath_bases(inner):
    # a wreath product as the base: cosets of <b> are found by the base's
    # power membership, so built pairs are conjugate and no pair with a
    # conjugator in the radius-4 ball is answered "not conjugate"
    G = WreathGroup(Z, WreathGroup(inner, Z))
    rng = random.Random(63)
    for i in range(40):
        u = _rand_elem(G, rng, steps=4)
        built = i % 2 == 0
        v = w_conjugate(u, _rand_elem(G, rng, steps=3)) if built else _rand_elem(G, rng, steps=4)
        res = conjugacy_test(u, v)
        assert res.complete
        if res.conjugate:
            assert w_multiply(u, res.witness) == w_multiply(res.witness, v)
        else:
            assert not built and _brute_conjugate(G, u, v, 4) is None


def test_conjugacy_over_a_distorted_wreath_base():
    # beta's base part is central in Heisenberg, so |beta^25| = 20 < 25:
    # membership recurses into the base instead of bounding the exponent by
    # a length, and u's two lamps share one coset, so u is inert
    H = HeisenbergHandle()
    B = WreathGroup(Z, H)
    beta = base_generator(Z, H, (0, 0, 1))
    beta25 = w_power(beta, 25)
    assert B.power_membership(beta25, beta) == 25
    assert B.power_membership(w_multiply(beta25, lamp_generator(Z, H, (1,))), beta) is None
    u = wreath_element(Z, B, [(B.identity, (1,)), (beta25, (-1,))], beta)
    v = base_generator(Z, B, beta)
    res = conjugacy_test(u, v)
    assert res.conjugate and res.complete and res.case == "inert-base"
    assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


def test_conjugator_assembly_steps_through_each_coset(monkeypatch):
    # h(b^k t) is read at every exponent k of a coset's span; one product
    # per step keeps the assembly linear in the span where B.power is
    # iterated multiplication
    import magnuskit.wreath as wreath

    H = HeisenbergHandle()
    B = WreathGroup(Z, H)
    beta = base_generator(Z, H, (0, 0, 1))
    n = 200
    u = wreath_element(Z, B, [(B.identity, (1,)), (w_power(beta, n), (-1,))], beta)
    v = base_generator(Z, B, beta)
    calls = {"power": 0, "w_multiply": 0}
    power, multiply = WreathGroup.power, wreath.w_multiply

    def counting_power(self, b, k):
        calls["power"] += 1
        return power(self, b, k)

    def counting_multiply(x, y):
        calls["w_multiply"] += 1
        return multiply(x, y)

    monkeypatch.setattr(WreathGroup, "power", counting_power)
    monkeypatch.setattr(wreath, "w_multiply", counting_multiply)
    witness = conjugator_for_z(u, v, B.identity)
    monkeypatch.undo()
    assert witness is not None and len(witness.f) == n
    assert w_multiply(u, witness) == w_multiply(witness, v)
    assert calls["power"] == 1  # one coset
    assert calls["w_multiply"] <= 3 * n


def test_conjugacy_over_a_finite_wreath_base():
    # in Z/2 wr Z/2 the order of (1 at 0, 1) is 4, so <b> and its cosets
    # are found only with the true order, not lcm(2, 2) = 2
    A, B = Z, WreathGroup(ZNHandle(2), ZNHandle(2))
    rng = random.Random(1)
    for _ in range(300):
        u = random_wreath_element(A, B, rng, 4)
        v = w_conjugate(u, random_wreath_element(A, B, rng, 4))
        res = conjugacy_test(u, v)
        assert res.conjugate and res.complete
        assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


@pytest.mark.parametrize("base", [HeisenbergHandle(), FreeHandle(2)], ids=lambda h: h.kind)
def test_inert_pairs_agree_with_reference_scan(base):
    # inert pairs reduce to conjugacy of their base parts, decided by
    # base.conjugator instead of a ball scan
    rng = random.Random(62)

    def base_elem(n):
        return base.from_word(random_word(2, n, rng))

    def inert(b):
        alpha = wreath_element(Z, base, [(base_elem(2), (rng.randint(-2, 2),))], base.identity)
        return w_conjugate(wreath_element(Z, base, [], b), alpha)

    negatives = 0
    for i in range(30):
        b = base_elem(rng.randint(1, 3))
        g = base_elem(rng.randint(0, 2))
        c = base.multiply(base.multiply(base.invert(g), b), g) if i % 2 == 0 else base_elem(rng.randint(1, 3))
        u, v = inert(b), inert(c)
        assert is_inert(u) and is_inert(v)
        res = conjugacy_test(u, v)
        assert res.complete and res.case in ("inert-base", "order-mismatch")
        assert res.conjugate == (minimal_conjugator(u, v, z_radius=3) is not None)
        if res.conjugate:
            assert w_multiply(u, res.witness) == w_multiply(res.witness, v)
        negatives += not res.conjugate
    assert negatives


def test_conjugacy_heisenberg_lamp_finite_base():
    # finite-order base parts need lamp conjugators in an infinite
    # non-abelian lamp group
    G = WreathGroup(HeisenbergHandle(), ZNHandle(2))
    rng = random.Random(63)
    for _ in range(40):
        u = _rand_elem(G, rng, steps=6)
        v = w_conjugate(u, _rand_elem(G, rng, steps=6))
        res = conjugacy_test(u, v)
        assert res.conjugate and res.complete
        assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


@pytest.mark.parametrize(
    "base", [Z2, HeisenbergHandle(), FreeHandle(2), solvable_group(2, 2)], ids=lambda h: h.kind
)
def test_conjugators_step_along_the_base_part(base):
    # for b of infinite order the conjugator at base part b^k z is u^k times
    # the one at z, as an element and in its JSON form, and step_conjugators
    # walks to it from z in either direction; conjugators yields the
    # candidates' conjugators in candidate order
    rng = random.Random(71)

    def element(lamps, n):
        near = [base.from_word(random_word(2, rng.randint(0, 3), rng)) for _ in range(lamps)]
        pairs = [(p, (rng.choice([-1, 1, 2]),)) for p in near]
        return wreath_element(Z, base, pairs, base.from_word(random_word(2, n, rng)))

    steps = 0
    for _ in range(15):
        u = element(rng.randint(1, 5), rng.randint(1, 3))
        if base.order(u.b) is None:
            gamma = element(rng.randint(0, 3), rng.randint(0, 3))
            v = w_conjugate(u, gamma)
            candidates = list(base_part_candidates(u, v))
            built = [conjugator_for_z(u, v, z) for z in candidates]
            assert list(conjugators(u, v)) == [w for w in built if w is not None]
            for z, w in zip([*candidates, gamma.b], [*built, conjugator_for_z(u, v, gamma.b)]):
                if w is not None:
                    walked = dict(zip(range(1, 4), step_conjugators(u, v, w, 3)))
                    walked.update(zip(range(-1, -3, -1), step_conjugators(u, v, w, -2)))
                for k in range(-2, 4):
                    stepped = conjugator_for_z(u, v, base.multiply(base.power(u.b, k), z))
                    if w is None:
                        assert stepped is None
                        continue
                    expected = w_multiply(w_power(u, k), w)
                    assert stepped == expected == walked.get(k, w)
                    assert element_to_json(stepped) == element_to_json(expected)
                    steps += 1
    assert steps


def test_stepping_rejects_a_finite_order_base_part(monkeypatch):
    # over Z/3 a conjugator at b^k is not u^k times the one at e: the lamp
    # conjugator alpha is free, so the walk along <b> is refused before it
    # builds anything
    built = []
    monkeypatch.setattr(wreath, "conjugator_for_z", lambda *args: built.append(args))
    monkeypatch.setattr(wreath, "w_multiply", lambda *args: built.append(args))
    B = ZNHandle(3)
    u = wreath_element(Z, B, [(0, (1,))], 1)
    for steps in (2, -1):
        with pytest.raises(ValueError, match="infinite order"):
            step_conjugators(u, u, u, steps)
    assert not built


def _projecting_cosets(u):
    """(N, s): the cosets of <u.b> through Supp u with a nontrivial
    projection, and the largest span of u's exponents on one of them,
    grouped by power membership and projected with pi_projection."""
    B, A = u.base, u.lamp
    cosets = {}
    for p in u.support():
        for t, js in cosets.items():
            j = B.power_membership(B.multiply(p, B.invert(t)), u.b)
            if j is not None:
                js.append(j)
                break
        else:
            cosets[p] = [0]
    spans = [max(js) - min(js) + 1 for t, js in cosets.items() if pi_projection(u, t) != A.identity]
    return len(spans), max(spans, default=0)


@pytest.mark.parametrize("base", [Z2, HeisenbergHandle(), FreeHandle(2)], ids=lambda h: h.kind)
def test_step_radius_bounds_every_shorter_conjugator(base):
    # past step_radius each stepped conjugator u^k w carries at least
    # N(|k| - s + 1) - |Supp w| lamps and is longer than w
    # w runs over the first witness and the conjugating element itself
    rng = random.Random(24 + len(base.kind))

    def element(lamps, n):
        near = [base.from_word(random_word(2, rng.randint(0, 3), rng)) for _ in range(lamps)]
        pairs = [(p, (rng.choice([-1, 1, 2]),)) for p in near]
        return wreath_element(Z, base, pairs, base.from_word(random_word(2, n, rng)))

    pairs = 0
    while pairs < 8:
        u = element(rng.randint(1, 4), rng.randint(1, 2))
        if base.order(u.b) is not None or is_inert(u):
            continue
        gamma = element(rng.randint(0, 5), rng.randint(0, 2))
        v = w_conjugate(u, gamma)
        N, s = _projecting_cosets(u)
        for w in (next(conjugators(u, v)), gamma):
            best = w_length(w).value
            r = wreath.step_radius(u, w, best)
            for sign in (1, -1):
                for k, wk in enumerate(step_conjugators(u, v, w, sign * (r + 3)), 1):
                    assert len(wk.f) >= N * (k - s + 1) - len(w.f)
                    if k > r:
                        assert w_length(wk).value > best
        pairs += 1


def test_step_radius_refuses_inert_and_finite_order_elements():
    inert = wreath_element(Z, Z2, [((0, 0), (1,)), ((1, 0), (-1,))], (1, 0))
    assert is_inert(inert)
    with pytest.raises(ValueError, match="inert"):
        wreath.step_radius(inert, inert, 4)
    u = wreath_element(Z, ZNHandle(3), [(0, (1,))], 1)
    with pytest.raises(ValueError, match="infinite order"):
        wreath.step_radius(u, u, 4)


def _decision_digest():
    """sha256 over seeded conjugacy_test results: decision, case and
    witness JSON, over finite (alpha from A.conjugator) and infinite base
    parts."""
    rng = random.Random(20)
    digest = hashlib.sha256()
    S3 = PermHandle(3)
    for A, B, reps in (
        (Z, ZNHandle(3), 40),
        (S3, S3, 40),
        (Z, Z2, 40),
        (S3, Z2, 30),
        (Z, HeisenbergHandle(), 30),
        (Z, solvable_group(2, 2), 10),
    ):
        for _ in range(reps):
            u = random_wreath_element(A, B, rng, rng.randint(0, 12))
            if rng.random() < 0.7:
                v = w_conjugate(u, random_wreath_element(A, B, rng, rng.randint(0, 4)))
            else:
                v = random_wreath_element(A, B, rng, rng.randint(0, 12))
            res = conjugacy_test(u, v)
            witness = None if res.witness is None else element_to_json(res.witness)
            digest.update(json.dumps([res.conjugate, res.case, witness], sort_keys=True).encode())
    return digest.hexdigest()


def test_decisions_are_pinned():
    # decisions, cases and witness JSON of a seeded pool over finite and
    # infinite base parts: any change to a decision or a witness shows here
    assert _decision_digest() == "18e02d1c57ba3157720534d095af0aadac5e81955dc76eeb2db411343f39edb4"


def test_minimal_conjugator_inert_pairs_take_base_minimum():
    # for lamp-free pairs the minimal conjugator is a pure base conjugator
    S3 = PermHandle(3)
    G = WreathGroup(Z, S3)
    swap = S3.generators()[0][1]
    other = S3.multiply(S3.multiply(S3.generators()[1][1], swap), S3.invert(S3.generators()[1][1]))
    u = wreath_element(Z, S3, [], swap)
    v = wreath_element(Z, S3, [], other)
    best = minimal_conjugator(u, v, z_radius=4)
    assert best is not None
    witness, length = best
    assert not witness.f
    zmin = min(
        S3.distance(S3.identity, z)
        for _, layer in ball_layers(S3, None)
        for _, z in layer
        if S3.key(S3.multiply(swap, z)) == S3.key(S3.multiply(z, other))
    )
    assert length.value == zmin


# -- bound formulas ------------------------------------------------------------


def test_upper_bound_formula_values():
    assert upper_bound_formula(2, 14) == 3 * 14 * 29  # 1218
    assert upper_bound_formula(2, 14, order=1) == 14 * 2 * 5  # 140
    assert upper_bound_formula(3, 10, delta=lambda p: 0) == 4 * 10


# -- the handle ------------------------------------------------------------------


def test_wreath_handle_order():
    G = WreathGroup(Z, ZNHandle(2))
    u = wreath_element(Z, ZNHandle(2), [(0, (1,))], 1)
    assert G.order(u) is None  # the lamp sum survives squaring
    v = wreath_element(Z, ZNHandle(2), [(0, (1,)), (1, (-1,))], 1)
    assert G.order(v) == 2
    Gf = WreathGroup(ZNHandle(3), ZNHandle(2))
    w = wreath_element(ZNHandle(3), ZNHandle(2), [(0, 1)], 1)
    assert Gf.order(w) == 6
    # oracle: the order really is the least trivialising power
    for k in range(1, 7):
        assert w_power(w, k).is_identity == (k == 6)
    # the order is N * lcm(lamp orders of u^N), not their lcm: in Z/2 wr Z/2
    # (1 at 0, 1) squares to (1 at 0 and 1, 0), so its order is 4
    Z2wrZ2 = WreathGroup(ZNHandle(2), ZNHandle(2))
    assert Z2wrZ2.order(wreath_element(ZNHandle(2), ZNHandle(2), [(0, 1)], 1)) == 4
    for _, x in enumerate_finite(Z2wrZ2):
        n = Z2wrZ2.order(x)
        assert w_power(x, n).is_identity
        assert not any(w_power(x, k).is_identity for k in range(1, n))


def test_wreath_handle_distance_beyond_cap():
    # six lamps on two rows: past travel_exact_max = 3 the 2-opt path (13)
    # misses the detour bound (11), so the length is uncertified and raises
    x = wreath_element(Z, Z2, [((0, 0), (1,)), ((0, 1), (1,))], (1, 0))
    u = w_power(x, 3)
    assert w_length(u) == Measure(13, True, 13)
    G = WreathGroup(Z, Z2, DEFAULT.with_(travel_exact_max=3))
    assert w_length(u, G.config) == Measure(13, False, 11)
    with pytest.raises(BeyondCapError):
        G.distance(G.identity, u)


def test_element_json_round_trip():
    rng = random.Random(48)
    G = WreathGroup(Z, Z2)
    for _ in range(40):
        u = _rand_elem(G, rng)
        assert element_from_json(element_to_json(u), Z, Z2) == u
    with pytest.raises(ValueError):
        element_from_json({"f": []}, Z, Z2)


# -- form keys ----------------------------------------------------------------


def _colliding_elements():
    # CPython hashes -1 and -2 alike, so these eight elements of Z^2 wr Z^2
    # (one cell at e, base point on the x axis) have keys with one hash
    return [
        wreath_element(Z2, Z2, [((0, 0), (a, b))], (c, 0))
        for a in (-1, -2) for b in (-1, -2) for c in (-1, -2)
    ]


def test_form_keys_with_equal_hashes_stay_distinct_and_ordered():
    elems = _colliding_elements()
    keys = [u.key() for u in elems]
    assert all(isinstance(k, FormKey) for k in keys)
    assert len({hash(k) for k in keys}) == 1
    assert len(set(keys)) == len(keys)  # equality never decides on the hash alone
    u, v = elems[0], elems[2]  # cells (-1, -1) and (-1, -2) at e, same base point
    assert u.key() != v.key() and not u.key() == v.key() and u != v
    assert u.key() == wreath_element(Z2, Z2, [((0, 0), (-1, -1))], (-1, 0)).key()

    rng = random.Random(5)
    order = sorted(keys)
    assert all(a < b and not b < a and a <= b and b > a for a, b in zip(order, order[1:]))
    for _ in range(30):
        rng.shuffle(keys)
        assert sorted(keys) == order

    # the same keys as positions of a next-level element: its support and
    # JSON come out in one order whatever order the cells were given in
    G = WreathGroup(Z2, Z2)
    first = None
    for _ in range(30):
        rng.shuffle(elems)
        w = wreath_element(Z, G, [(p, (1,)) for p in elems], G.identity)
        seen = ([p.key() for p in w.support()], element_to_json(w))
        assert seen[0] == sorted(seen[0])
        first = first or seen
        assert seen == first


def test_form_keys_sort_by_their_content():
    # keys sort as their spelled-out (base key, sorted cells) tuples do at
    # every depth, so supports and JSON cells do not follow hashes
    def spelled(k):
        if isinstance(k, FormKey):
            return (spelled(k[0]), sorted((spelled(p), spelled(v)) for p, v in k[1]))
        return k

    G = WreathGroup(Z, Z2)
    rng = random.Random(23)
    for group in (G, WreathGroup(Z, G)):
        keys = [_rand_elem(group, rng, 8).key() for _ in range(60)]
        assert sorted(keys) == sorted(keys, key=spelled)
