import itertools
import random

import pytest

from magnuskit.config import DEFAULT
from magnuskit.errors import BeyondCapError
from magnuskit.groups import FreeHandle, HeisenbergHandle, PermHandle, ZNHandle, ZrHandle, ball_layers
from magnuskit.wreath import (
    FormKey,
    Measure,
    WreathGroup,
    base_generator,
    conjugacy_test,
    conjugator_for_z,
    element_from_json,
    element_to_json,
    identity_element,
    is_inert,
    lamp_generator,
    pi_projection,
    travel_cost,
    upper_bound_formula,
    w_conjugate,
    w_invert,
    w_length,
    w_multiply,
    w_power,
    wreath_element,
)
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


def test_travel_cost_heisenberg_base():
    # non-abelian base distances feed the same subset DP
    from magnuskit.groups import HeisenbergHandle

    H = HeisenbergHandle(cap=8)
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
    H = HeisenbergHandle(cap=12)
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


@pytest.mark.parametrize("base", [HeisenbergHandle(cap=12), FreeHandle(2)], ids=lambda h: h.kind)
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
    G = WreathGroup(HeisenbergHandle(cap=8), ZNHandle(2))
    rng = random.Random(63)
    for _ in range(40):
        u = _rand_elem(G, rng, steps=6)
        v = w_conjugate(u, _rand_elem(G, rng, steps=6))
        res = conjugacy_test(u, v)
        assert res.conjugate and res.complete
        assert w_multiply(u, res.witness) == w_multiply(res.witness, v)


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


def test_wreath_handle_distance_beyond_cap():
    G = WreathGroup(Z, Z)
    pts = [((i,), (1,)) for i in range(-6, 6)]
    u = wreath_element(Z, Z, pts, (0,))
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
