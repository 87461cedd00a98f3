import itertools
import os
import random
import subprocess
import sys

import pytest

from magnuskit import magnus
from magnuskit.config import DEFAULT
from magnuskit.groups import ZrHandle, ball_layers, edge_traversal_counts
from magnuskit.magnus import (
    bilipschitz_check,
    divergence_of,
    geodesic_length,
    magnus_embed,
    offsupport_connection_cost,
    solvable_conjugacy_test,
    solvable_eq,
    solvable_group,
)
from magnuskit.wreath import WreathGroup, w_length, w_multiply, wreath_element
from magnuskit.words import FreeWord, gen, nested_commutator_sample, random_word

Z2 = ZrHandle(2)
S22 = solvable_group(2, 2)


def test_embed_generator():
    img = magnus_embed(FreeWord(2, (1,)), Z2)
    assert img.b == (1, 0)
    assert img.lamp_at((0, 0)) == (1, 0)
    assert len(img.f) == 1


def test_embed_commutator_frozen():
    img = magnus_embed(FreeWord(2, (1, 2, -1, -2)), Z2)
    assert img.b == (0, 0)
    assert img.lamp_at((0, 0)) == (1, -1)
    assert img.lamp_at((0, 1)) == (-1, 0)
    assert img.lamp_at((1, 0)) == (0, 1)
    assert len(img.f) == 3


def test_embed_kernel_on_nested_commutators():
    rng = random.Random(51)
    produced = 0
    while produced < 50:
        w = nested_commutator_sample(2, 2, rng, base_length=3)
        if not len(w):
            continue
        assert magnus_embed(w, Z2).is_identity
        produced += 1
    S = solvable_group(2, 2)
    produced = 0
    while produced < 10:
        w = nested_commutator_sample(2, 3, rng, base_length=3)
        if not len(w):
            continue
        assert magnus_embed(w, S).is_identity
        produced += 1


def test_embed_is_homomorphism_random():
    rng = random.Random(52)
    for _ in range(200):
        u = random_word(2, rng.randint(0, 12), rng)
        v = random_word(2, rng.randint(0, 12), rng)
        assert magnus_embed(u * v, Z2) == w_multiply(
            magnus_embed(u, Z2), magnus_embed(v, Z2)
        )
    # group arithmetic composes forms; they must be the forms of the
    # concatenated and inverted words
    for d in (3, 4):
        S = solvable_group(2, d)
        for _ in range(10):
            u = random_word(2, rng.randint(0, 10), rng)
            v = random_word(2, rng.randint(0, 10), rng)
            a, b = S.from_word(u), S.from_word(v)
            assert S.multiply(a, b).form.key() == magnus_embed(u * v, S.base, S.lamp).key()
            assert S.invert(a).form.key() == magnus_embed(u.inverse(), S.base, S.lamp).key()


def test_solvable_eq_agrees_with_quotient_kernel():
    # equality of normal forms is the same as u v^-1 embedding trivially
    rng = random.Random(50)
    for _ in range(100):
        u = random_word(2, rng.randint(0, 8), rng)
        v = random_word(2, rng.randint(0, 8), rng)
        via_forms = solvable_eq(S22.from_word(u), S22.from_word(v))
        via_kernel = magnus_embed(u * v.inverse(), Z2).is_identity
        assert via_forms == via_kernel


def test_solvable_eq_examples():
    Z2h = solvable_group(2, 1)
    assert Z2h.key(Z2h.from_word(FreeWord(2, (1, 2)))) == Z2h.key(
        Z2h.from_word(FreeWord(2, (2, 1)))
    )
    u = S22.from_word(FreeWord(2, (1, 2)))
    v = S22.from_word(FreeWord(2, (2, 1)))
    assert not solvable_eq(u, v)
    rng = random.Random(53)
    for _ in range(20):
        w = random_word(2, rng.randint(0, 8), rng)
        c = nested_commutator_sample(2, 2, rng)
        assert solvable_eq(S22.from_word(w), S22.from_word(w * c))


def test_flow_divergence_contract():
    div = divergence_of(magnus_embed(FreeWord(2, (1,)), Z2))
    assert div == {(0, 0): 1, (1, 0): -1}

    assert divergence_of(magnus_embed(FreeWord(2, (1, 2, -1, -2)), Z2)) == {}

    rng = random.Random(54)
    for _ in range(1000):
        w = random_word(2, rng.randint(0, 15), rng)
        div = divergence_of(magnus_embed(w, Z2))
        end = Z2.from_word(w)
        expected = {} if end == (0, 0) else {(0, 0): 1, end: -1}
        assert div == expected


def test_flow_matches_edge_walker():
    rng = random.Random(55)
    for _ in range(200):
        w = random_word(2, rng.randint(0, 15), rng)
        form = magnus_embed(w, Z2)
        counts, _, end = edge_traversal_counts(Z2, w)
        # cell q with vector v carries count v[i-1] on the edge (q, q.x_i)
        flow = {(k, i): c for k, (_, v) in form.f.items() for i, c in enumerate(v, start=1) if c}
        assert flow == counts
        assert Z2.key(form.b) == Z2.key(end)


def test_geodesic_examples():
    assert geodesic_length(S22.from_word(FreeWord(2, (1,)))).value == 1
    assert geodesic_length(S22.from_word(FreeWord(2, (1, 2, -1, -2)))).value == 4
    for k in range(1, 7):
        assert geodesic_length(S22.from_word(gen(2, 1).power(k))).value == k


def test_geodesic_disconnected_flow_needs_connectors():
    # a loop at the origin and a far loop: the two connecting edges are
    # traversed once out and once back, so they count twice
    c = FreeWord(2, (1, 2, -1, -2))
    far = gen(2, 1).power(3) * c * gen(2, 1).power(-3)
    w = c * far
    m = geodesic_length(S22.from_word(w))
    assert m == (12, True, 12)
    # the value is achieved: an explicit 12-letter word weaving both loops
    # into one walk represents the same element
    weave = FreeWord(2, (1, 1, 1, 1, 2, -1, -2, -1, -1, 2, -1, -2))
    assert len(weave) == 12
    assert solvable_eq(S22.from_word(w), S22.from_word(weave))


def test_geodesic_matches_bfs_small_ball():
    for dist, layer in ball_layers(S22, 4):
        for _, g in layer:
            assert geodesic_length(g).value == dist


def test_geodesic_matches_bfs_radius8_exercises_connectors():
    """Radius 8 reaches elements whose flow support is disconnected from the
    identity (connector cost 1) and two-step connectors (cost 2), so the
    off-support walk reading is probed, not just the flow total."""
    costs = {}
    for dist, layer in ball_layers(S22, 8):
        for _, g in layer:
            m = geodesic_length(g)
            assert m.exact and m.value == dist
            w = offsupport_connection_cost(g.form)
            costs[w.value] = costs.get(w.value, 0) + 1
    assert costs.get(1, 0) > 0 and costs.get(2, 0) > 0


def _loop_word(rng, components):
    """Commutator loops conjugated out to distinct points of the lattice
    3Z^2, where no two loops and no loop and the identity share a vertex,
    so the flow support has exactly `components` components (identity
    included)."""
    sites = [(3 * i, 3 * j) for i in range(-2, 3) for j in range(-2, 3) if i or j]
    w = FreeWord(2, ())
    for x, y in rng.sample(sites, components - 1):
        moves = [1 if x > 0 else -1] * abs(x) + [2 if y > 0 else -2] * abs(y)
        rng.shuffle(moves)
        p = FreeWord(2, moves)
        a, b = (gen(2, i).power(rng.choice((1, -1))) for i in rng.sample((1, 2), 2))
        w = w * p * a * b * a.inverse() * b.inverse() * p.inverse()
    return w


def _star_word(k):
    """Four unit commutator loops at distance k along the +-x1 and +-x2
    axes (the star family of the ROADMAP's Steiner-tree item)."""
    w = FreeWord(2, ())
    for axis, other in ((1, 2), (-1, 2), (2, 1), (-2, 1)):
        w = w * FreeWord(2, (axis,) * k + (axis, other, -axis, -other) + (-axis,) * k)
    return w


def _brute_connection_cost(form):
    """The connection cost by enumerating every order of the flow-support
    components over their 0/1 distances (free endpoints)."""
    comps, verts = magnus._support_components(form)
    comp_of = {k: ci for ci, comp in enumerate(comps) for k in comp}
    D = {}
    for ci, comp in enumerate(comps):
        others = [k for k in comp_of if comp_of[k] != ci]
        for k, d in magnus._zero_one_distances(form, comp, others, verts, DEFAULT).items():
            D[ci, comp_of[k]] = min(d, D.get((ci, comp_of[k]), d))
    return min(
        sum(D[a, b] for a, b in zip(order, order[1:]))
        for order in itertools.permutations(range(len(comps)))
    )


def test_connection_cost_against_order_enumeration():
    rng = random.Random(61)
    words = [_loop_word(rng, m) for m in range(3, 9) for _ in range(2)]
    words += [_star_word(k) for k in (2, 3, 4)]
    for w in words:
        form = S22.from_word(w).form
        got = offsupport_connection_cost(form)
        assert got.exact
        assert got.value == _brute_connection_cost(form)


@pytest.mark.parametrize("components, cap", [(3, 2), (6, 4)])
def test_connection_cost_beyond_the_cap_is_flagged(components, cap):
    # one threshold counts travel points and support components alike
    form = S22.from_word(_loop_word(random.Random(components), components)).form
    assert len(magnus._support_components(form)[0]) == components
    got = offsupport_connection_cost(form, DEFAULT.with_(travel_exact_max=cap))
    exact = offsupport_connection_cost(form)
    assert not got.exact and exact.exact
    assert got.lower <= exact.value <= got.value


def test_geodesic_length_runs_the_path_tsp_kernel_once(monkeypatch):
    from magnuskit import wreath

    calls = []
    solve = wreath._path_tsp_exact

    def counting(*args):
        calls.append(args[0])
        return solve(*args)

    monkeypatch.setattr(wreath, "_path_tsp_exact", counting)
    g = S22.from_word(_loop_word(random.Random(5), 4))
    assert geodesic_length(g).exact
    assert calls == [4]


def test_bilipschitz_examples():
    g = S22.from_word(FreeWord(2, (1,)))
    intrinsic, embedded, ok = bilipschitz_check(g)
    assert (intrinsic.value, embedded.value, ok) == (1, 2, True)

    g = S22.from_word(gen(2, 1).power(3))
    intrinsic, embedded, ok = bilipschitz_check(g)
    assert (intrinsic.value, embedded.value, ok) == (3, 6, True)

    g = S22.from_word(FreeWord(2, ()))
    intrinsic, embedded, ok = bilipschitz_check(g)
    assert (intrinsic.value, embedded.value, ok) == (0, 0, True)


def test_solvable_conjugacy_examples():
    u = S22.from_word(FreeWord(2, (1, 2, -1)))
    v = S22.from_word(FreeWord(2, (2,)))
    assert solvable_conjugacy_test(u, v).conjugate

    assert not solvable_conjugacy_test(
        S22.from_word(FreeWord(2, (1,))), S22.from_word(FreeWord(2, (2,)))
    ).conjugate

    rng = random.Random(56)
    for _ in range(20):
        w = random_word(2, rng.randint(0, 4), rng)
        gamma = random_word(2, rng.randint(0, 3), rng)
        u = S22.from_word(w)
        v = S22.from_word(gamma.inverse() * w * gamma)
        assert solvable_conjugacy_test(u, v).conjugate


def test_solvable_conjugacy_depth3():
    # the recursion one level up: base parts live in S_{2,2}, whose bounded
    # power searches sort support points into cosets
    S3 = solvable_group(2, 3)
    u = S3.from_word(FreeWord(2, (1,)))
    gamma = S3.from_word(FreeWord(2, (2, 1)))
    v = S3.multiply(S3.multiply(S3.invert(gamma), u), gamma)
    res = solvable_conjugacy_test(u, v)
    assert res.conjugate and res.complete
    assert res.witness.b.word.letters == (2, 1)
    rej = solvable_conjugacy_test(S3.identity, u)
    assert not rej.conjugate and rej.case == "order-mismatch"
    # a non-inert pair that is not conjugate: the candidates come from the
    # supports, not from a ball of S_{2,2}
    far = solvable_conjugacy_test(u, S3.from_word(FreeWord(2, (1, 1, 2, -1, -2))))
    assert not far.conjugate and far.complete and far.case == "scan-exhausted"


def test_depth3_decisions_take_no_more_lengths_than_membership_queries(monkeypatch):
    # support points join cosets by power membership alone, and each query
    # takes at most one length for its exponent bound
    calls = {"length": 0, "member": 0}
    length, member = magnus.geodesic_length, magnus.SolvableGroup.power_membership

    def counting_length(*args, **kwargs):
        calls["length"] += 1
        return length(*args, **kwargs)

    def counting_member(*args, **kwargs):
        calls["member"] += 1
        return member(*args, **kwargs)

    monkeypatch.setattr(magnus, "geodesic_length", counting_length)
    monkeypatch.setattr(magnus.SolvableGroup, "power_membership", counting_member)
    S3 = solvable_group(2, 3)
    u = S3.from_word(FreeWord(2, (1,)))
    gamma = S3.from_word(FreeWord(2, (2, 1)))
    for a, b in (
        (u, S3.multiply(S3.multiply(S3.invert(gamma), u), gamma)),
        (S3.identity, u),
        (u, S3.from_word(FreeWord(2, (1, 1, 2, -1, -2)))),
    ):
        solvable_conjugacy_test(a, b)
    assert calls["member"] > 0
    assert calls["length"] <= calls["member"]


def test_solvable_conjugator_in_the_derived_subgroup():
    # u has base part e, so the lamp part of a conjugator is free: the
    # conjugator is the lift of the candidate base part, an element of S_{2,2}
    u = S22.from_word(FreeWord(2, (-2, -1, 2, 1)))
    g = S22.from_word(FreeWord(2, (2, 2)))
    v = S22.multiply(S22.multiply(S22.invert(g), u), g)
    z = S22.conjugator(u, v)
    assert S22.key(S22.multiply(u, z)) == S22.key(S22.multiply(z, v))
    assert magnus_embed(z.word, Z2) == z.form
    assert S22.conjugator(u, S22.from_word(FreeWord(2, (1, 2, -1, -2)))) is None


def test_non_inert_decision_tries_at_most_the_support(monkeypatch):
    # u vs u[x1,x2] with |u| = 3: not conjugate and not inert, so the whole
    # candidate set is tried; it has at most |Supp u| base parts
    from magnuskit import wreath

    calls = []
    build = wreath.conjugator_for_z

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(wreath, "conjugator_for_z", counting)
    for letters in ((1, 1, 2), (1, 2, 1), (1, -2, 1), (1, -2, -2)):
        u = S22.from_word(FreeWord(2, letters))
        v = S22.from_word(FreeWord(2, letters + (1, 2, -1, -2)))
        calls.clear()
        res = solvable_conjugacy_test(u, v)
        assert not res.conjugate and res.complete and res.case == "scan-exhausted"
        assert 0 < len(calls) <= len(u.form.f)


def test_conjugacy_finds_each_projecting_point_once(monkeypatch):
    # over an S_{2,2} base every coset membership query takes a geodesic
    # length and a power search, so v's projecting point is found only once
    from magnuskit import wreath

    seen = []
    find = wreath._projecting_point

    def counting(w):
        seen.append(w)
        return find(w)

    monkeypatch.setattr(wreath, "_projecting_point", counting)
    S3 = solvable_group(2, 3)
    u = S3.from_word(FreeWord(2, (1,)))
    gamma = S3.from_word(FreeWord(2, (2, 1)))
    for v in (
        S3.multiply(S3.multiply(S3.invert(gamma), u), gamma),
        S3.from_word(FreeWord(2, (1, 1, 2, -1, -2))),
    ):
        seen.clear()
        solvable_conjugacy_test(u, v)
        assert len(seen) == 2 and seen[0] is u.form and seen[1] is v.form


def test_depth4_lengths_keep_the_sandwich():
    # two recursion levels above the abelian floor
    S4 = solvable_group(2, 4)
    rng = random.Random(4)
    for _ in range(20):
        g = S4.from_word(random_word(2, rng.randint(0, 8), rng))
        intrinsic = geodesic_length(g)
        embedded = w_length(g.form)
        assert intrinsic.exact and embedded.exact
        assert intrinsic.value <= 2 * embedded.value <= 4 * intrinsic.value


def test_depth4_form_embeds_words_a_fixed_number_of_times(monkeypatch):
    # the Fox walk composes prefix forms instead of re-embedding every
    # prefix, and each handle embeds its generators once, so a form is
    # exactly one embedding of its own word
    S4 = solvable_group(2, 4)
    S4.from_word(FreeWord(2, (1, 2, -1, -2))).form  # caches each level's identity and generator forms
    calls = []
    embed = magnus.magnus_embed

    def counting(*args, **kwargs):
        calls.append(1)
        return embed(*args, **kwargs)

    monkeypatch.setattr(magnus, "magnus_embed", counting)
    rng = random.Random(59)
    counts = []
    for n in (32, 64):
        letters = [1]
        while len(letters) < n:
            let = rng.choice((1, 2, -1, -2))
            if let != -letters[-1]:
                letters.append(let)
        calls.clear()
        S4.from_word(FreeWord(2, letters)).form
        counts.append(len(calls))
    assert counts == [1, 1]


def test_solvable_order_and_powers():
    x1 = S22.from_word(FreeWord(2, (1,)))
    assert S22.order(x1) is None  # torsion-free
    assert S22.order(S22.identity) == 1
    x13 = S22.from_word(gen(2, 1).power(3))
    assert S22.power_membership(x13, x1) == 3
    x2 = S22.from_word(FreeWord(2, (2,)))
    assert S22.power_membership(x1, x2) is None
    with pytest.raises(ValueError):
        S22.power_membership(x1, S22.identity)


def test_solvable_element_json():
    g = S22.from_word(FreeWord(2, (1, 2, -1, -2)))
    data = S22.to_json(g)
    assert data == {"r": 2, "d": 2, "word": [1, 2, -1, -2]}
    assert solvable_eq(S22.from_json(data), g)
    with pytest.raises(ValueError):
        S22.from_json({"r": 3, "d": 2, "word": [1]})


def test_embedded_length_vs_wreath_formula():
    rng = random.Random(58)
    for _ in range(50):
        w = random_word(2, rng.randint(0, 8), rng)
        g = S22.from_word(w)
        assert w_length(g.form).value == w_length(magnus_embed(w, Z2)).value


# -- the form key protocol ----------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_form_key_protocol(d):
    # what callers read off a key: the ball oracles are keyed by S.key and
    # looked up by form.key(), and a form's abelian image sits at the
    # bottom of the [0] chain and is the sum of its lamp vectors
    S = solvable_group(2, d)
    rng = random.Random(100 + d)
    for n in (1, 7, 24):
        letters = random_word(2, n, rng).letters
        cut = rng.randrange(len(letters) + 1)
        a = S.from_word(FreeWord(2, letters))
        b = S.multiply(S.from_word(FreeWord(2, letters[:cut])), S.from_word(FreeWord(2, letters[cut:])))
        key = b.form.key()
        assert S.key(a) == key and hash(S.key(a)) == hash(key)
        assert {S.key(a): 1}[key] == 1
        image = tuple(sum(1 if let == i else -1 if let == -i else 0 for let in letters) for i in (1, 2))
        base = key[0]
        while isinstance(base[0], tuple):
            base = base[0]
        assert tuple(base) == image
        assert tuple(map(sum, zip((0, 0), *(val for _, val in key[1])))) == image


def test_form_key_repr_is_short():
    # base key, cell count and hash; element_to_json holds the full form
    Z = ZrHandle(1)
    G = WreathGroup(Z, Z2)
    u = wreath_element(Z, Z2, [((i, -i), (i,)) for i in range(1, 40)], (3, 4))
    assert repr(u.key()) == f"FormKey(base=(3, 4), cells=39, hash={hash(u.key())})"
    v = wreath_element(Z, G, [(u, (1,)), (G.identity, (2,))], u)
    assert repr(v.key()) == f"FormKey(base={u.key()!r}, cells=2, hash={hash(v.key())})"
    # a |w| = 128 form of S_{2,4}, whose nested key spelled out in full
    # runs to megabytes
    letters = random_word(2, 400, random.Random(7)).letters[:128]
    assert len(letters) == 128
    key = solvable_group(2, 4).from_word(FreeWord(2, letters)).form.key()
    assert len(repr(key)) < 200


def test_canonical_orders_do_not_depend_on_the_hash_seed():
    # cells are frozensets, which iterate in hash order: whatever is printed
    # or ordered from them must come out the same under every hash seed
    src = os.path.dirname(os.path.dirname(os.path.abspath(magnus.__file__)))
    script = (
        "import json, random\n"
        "from magnuskit.groups import ball_layers\n"
        "from magnuskit.magnus import solvable_group\n"
        "from magnuskit.words import FreeWord\n"
        "from magnuskit.wreath import element_to_json\n"
        "rng = random.Random(3)\n"
        "w = FreeWord(2, [rng.choice((1, 2, -1, -2)) for _ in range(40)])\n"
        "print(json.dumps(element_to_json(solvable_group(2, 3).from_word(w).form)))\n"
        "S = solvable_group(2, 2)\n"
        "print([list(x.word.letters) for _, layer in ball_layers(S, 3) for _, x in layer])\n"
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2
