import gc
import itertools
import os
import random
import subprocess
import sys
from collections import deque

import pytest

from magnuskit import magnus, wreath
from magnuskit.config import DEFAULT, RunConfig
from magnuskit.errors import BeyondCapError
from magnuskit.fox import projected_derivatives
from magnuskit.groups import FreeHandle, HeisenbergHandle, ZrHandle, ball_layers, edge_traversal_counts
from magnuskit.magnus import (
    SolvableElement,
    bilipschitz_check,
    divergence_of,
    geodesic_length,
    magnus_embed,
    offsupport_connection_cost,
    solvable_conjugacy_test,
    solvable_eq,
    solvable_group,
)
from magnuskit.wreath import FormKey, WreathGroup, element_to_json, w_length, w_multiply, wreath_element
from magnuskit.words import FreeWord, commutator, gen, nested_commutator_sample, random_word

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


def _fox_reference(w, Q):
    """The image of w read off its projected Fox derivatives, walked
    through Q's own products: the definition of the embedding."""
    ders, endpoint = projected_derivatives(w, Q)
    cells = {}
    for i, der in enumerate(ders):
        for elem, coeff in der.terms():
            k = Q.key(elem)
            if k not in cells:
                cells[k] = (elem, [0] * w.rank)
            cells[k][1][i] = coeff
    return wreath_element(ZrHandle(w.rank), Q, [(e, tuple(v)) for e, v in cells.values()], endpoint)


def _oracle_words(r, rng, count):
    """Words whose prefix classes repeat and whose cells cancel to zero:
    conjugated commutators, nested commutators and products w.c.  A
    nested commutator z is trivial in S_{r,2}, so z.z[0] steps out of the
    identity again along the edge z[0] took from it: that cell is entered
    at one prefix and changed at another in the same class."""
    words = []
    while len(words) < count:
        g = random_word(r, rng.randint(0, 6), rng)
        c = commutator(random_word(r, rng.randint(1, 3), rng), random_word(r, rng.randint(1, 3), rng))
        z = nested_commutator_sample(r, 2, rng, base_length=3)
        if not z.letters:
            continue
        words.append(g * c * g.inverse())
        words.append(g * z * FreeWord(r, z.letters[:1]) * g.inverse())
        words.append(random_word(r, rng.randint(0, 12), rng) * c)
        words.append(g * c * g.inverse() * c * random_word(r, rng.randint(0, 4), rng))
    return words


@pytest.mark.parametrize("r,d", itertools.product((2, 3), (2, 3, 4)))
def test_embed_matches_the_fox_calculus_reference(r, d):
    S = solvable_group(r, d)
    for w in _oracle_words(r, random.Random(60 + 10 * r + d), 48):
        form = magnus_embed(w, S.base, S.lamp)
        ref = _fox_reference(w, S.base)
        assert form.key() == ref.key()
        # over Z^r a position is its own key, so the printed forms agree too;
        # above it representatives follow products, not the derivatives
        assert d > 2 or element_to_json(form) == element_to_json(ref)


@pytest.mark.parametrize("Q", [HeisenbergHandle(), FreeHandle(2)], ids=["heisenberg", "free"])
def test_embed_over_other_quotients_matches_the_fox_calculus_reference(Q):
    for w in _oracle_words(2, random.Random(62), 24):
        form, ref = magnus_embed(w, Q), _fox_reference(w, Q)
        prod = _letters_product(w, Q)
        assert form.key() == ref.key() == prod.key()
        assert element_to_json(form) == element_to_json(prod) and list(form.f) == list(prod.f)


def _letters_product(w, Q):
    """The product, by w_multiply, of the images of w's letters over Q."""
    form = wreath.identity_element(ZrHandle(w.rank), Q)
    for let in w.letters:
        form = w_multiply(form, magnus_embed(FreeWord(w.rank, (let,)), Q))
    return form


def _nested_elements(form):
    """The positions and endpoints of a form and of every form below it,
    each object once."""
    seen, todo = {}, [form]
    while todo:
        g = todo.pop()
        for q in [q for q, _ in g.f.values()] + [g.b]:
            if isinstance(q, SolvableElement) and id(q) not in seen:
                seen[id(q)] = q
                todo.append(q.form)
    return seen


def _product_chain(w, S):
    """The prefixes of w in S, each the product of the one before and a
    generator or its inverse."""
    steps = {i: g for i, (_, g) in enumerate(S.generators(), 1)}
    chain = [S.identity]
    for let in w.letters:
        chain.append(S.multiply(chain[-1], steps[let] if let > 0 else S.invert(steps[-let])))
    return chain


@pytest.mark.parametrize("d", [3, 4])
def test_every_prefix_snapshot_is_the_form_of_its_word(d):
    S = solvable_group(2, d)
    forms = []
    levels = set()
    for w in _oracle_words(2, random.Random(70 + d), 12):
        form = S.from_word(w).form
        forms.append(form)
        chains = {}
        for q in _nested_elements(form).values():
            H, g = q.group, q.form
            forms.append(g)
            levels.add(H.d)
            assert all(H.base.key(p) == k for k, (p, _) in g.f.items())
            rebuilt = FormKey(H.base.key(g.b), frozenset((k, H.lamp.key(v)) for k, (_, v) in g.f.items()))
            assert g.key() == rebuilt == magnus_embed(q.word, H.base, H.lamp).key()
            # every position is a prefix of w, with the cells, representatives
            # and cell order of the prefix's product form
            if H.d not in chains:
                chains[H.d] = _product_chain(w, H)
            prod = chains[H.d][len(q.word)].form
            assert q.word.letters == w.letters[: len(q.word)]
            assert element_to_json(g) == element_to_json(prod) and list(g.f) == list(prod.f)
    assert levels == set(range(2, d))
    # a snapshot owns its cell map: one aliasing the walk's running map
    # would share it with every other prefix
    assert len({id(g.f) for g in forms}) == len(forms)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_form_is_its_letters_product_form(d):
    # one cell walk builds every level, so a form built from a word, at the
    # top and below it, has the representatives and cell order of the
    # product of its letters' forms
    S = solvable_group(2, d)
    for w in _oracle_words(2, random.Random(90 + d), 48):
        chains = {e: _product_chain(w, solvable_group(2, e)) for e in range(2, d + 1)}
        form = S.from_word(w).form
        pairs = [(form, chains[d][-1].form)]
        pairs += [(q.form, chains[q.group.d][len(q.word)].form) for q in _nested_elements(form).values()]
        for g, prod in pairs:
            assert element_to_json(g) == element_to_json(prod) and list(g.f) == list(prod.f)


def test_depth4_form_makes_no_products(monkeypatch):
    # the walk snapshots each prefix; none is composed by w_multiply
    S4 = solvable_group(2, 4)
    for _, g in S4.generators():
        g.form
    calls = []
    product = wreath.w_multiply

    def counting(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(wreath, "w_multiply", counting)
    monkeypatch.setattr(magnus, "w_multiply", counting)
    rng = random.Random(61)
    letters = [1]
    while len(letters) < 64:
        let = rng.choice((1, 2, -1, -2))
        if let != -letters[-1]:
            letters.append(let)
    assert len(S4.from_word(FreeWord(2, letters)).form.key()[1]) > 0
    assert calls == []


def _reduced_letters(rng, n):
    letters = [1]
    while len(letters) < n:
        let = rng.choice((1, 2, -1, -2))
        if let != -letters[-1]:
            letters.append(let)
    return letters


def _counting_forms(monkeypatch):
    """Patch the Magnus form constructor; return the list of the bases of
    the forms built since."""
    built = []

    class Counting(wreath.WreathElement):
        __slots__ = ()

        def __init__(self, lamp, base, *rest):
            built.append(base)
            super().__init__(lamp, base, *rest)

    monkeypatch.setattr(magnus, "WreathElement", Counting)
    monkeypatch.setattr(wreath, "WreathElement", Counting)
    return built


def test_depth4_form_key_builds_no_prefix_form(monkeypatch):
    # every prefix below the top level is keyed, and none is given a form
    S4 = solvable_group(2, 4)
    for _, g in S4.generators():
        g.form
    built = _counting_forms(monkeypatch)
    w = FreeWord(2, _reduced_letters(random.Random(61), 64))
    form = S4.from_word(w).form
    assert len(form.key()[1]) > 0
    assert built == [S4.base]
    # equality and hashing read a prefix's own key
    fresh = S4.base.from_word(w)
    assert form.b == fresh and hash(form.b) == hash(fresh)
    assert built == [S4.base, S4.base.base]  # the top form, then fresh's


@pytest.mark.parametrize("d", [3, 4])
def test_a_prefix_form_replays_its_walk_once(monkeypatch, d):
    S = solvable_group(2, d)
    for _, g in S.generators():
        g.form
    built = _counting_forms(monkeypatch)
    w = FreeWord(2, _reduced_letters(random.Random(62), 64))
    form = S.from_word(w).form
    built.clear()
    reps = [q for q, _ in form.f.values()]
    reps[0].form
    # one replay builds every prefix's form at that level, and nothing below
    assert built == [S.base.base] * (len(w) + 1)
    built.clear()
    for q in reps + [form.b]:
        assert q.form.key() == q.group.key(q)
    assert built == []


@pytest.mark.parametrize("d, n", [(3, 256), (4, 64)])
def test_a_form_key_slices_no_prefix_word(monkeypatch, d, n):
    # each prefix holds the walked word and its length, not a copy of its
    # letters, so the words a form builds have O(|w|) letters in all
    S = solvable_group(2, d)
    for _, g in S.generators():
        g.form
    w = FreeWord(2, _reduced_letters(random.Random(63), n))
    letters = []
    init = FreeWord.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        letters.append(len(self.letters))

    monkeypatch.setattr(FreeWord, "__init__", counting)
    assert len(S.from_word(w).form.key()[1]) > 0
    assert sum(letters) <= n


@pytest.mark.parametrize("d", [3, 4])
def test_a_prefix_word_is_sliced_when_read(d):
    S = solvable_group(2, d)
    w = FreeWord(2, _reduced_letters(random.Random(64), 48))
    form = S.from_word(w).form
    H = S.base
    for q, _ in form.f.values():
        assert any(x is w for x in gc.get_referents(q))
        word = q.word
        assert word.letters == w.letters[: len(word)]
        assert magnus_embed(word, H.base, H.lamp).key() == H.key(q)
        assert not any(x is w for x in gc.get_referents(q))
        # the rest of the element works as before: its form replays the walk
        g = q.form
        cells = frozenset((k, H.lamp.key(v)) for k, (_, v) in g.f.items())
        assert FormKey(H.base.key(g.b), cells) == H.key(q) == H.key(H.from_word(word))
        assert repr(q) == f"SolvableElement(r=2, d={d - 1}, word={list(word.letters)})"
        assert H.from_json(H.to_json(q)) == q
        assert H.multiply(q, H.invert(q)).is_identity
        assert H.multiply(q, q).word.letters == (word * word).letters


def _conjugated_commutator_words(rng, count):
    """Words p.c.p^-1.q of length at most 64, c a nested commutator: c's
    cells cancel in S_{2,2}, so cells vanish and re-enter along the walk."""
    words = []
    while len(words) < count:
        c = nested_commutator_sample(2, 2, rng, base_length=3)
        p = random_word(2, rng.randint(0, 12), rng)
        w = p * c * p.inverse() * random_word(2, rng.randint(0, 12), rng)
        if c.letters and len(w) <= 64:
            words.append(w)
    return words


@pytest.mark.parametrize("d", [3, 4])
def test_every_replayed_prefix_form_is_its_product_form(d):
    forms, reentries = [], 0
    for w in _conjugated_commutator_words(random.Random(80 + d), 12):
        for H in (solvable_group(2, e) for e in range(2, d)):
            chain = _product_chain(w, H)
            seen, present = set(), set()
            for k, (q, key) in enumerate(magnus._prefixes(w, H)):
                g, prod = q.form, chain[k].form
                forms.append(g)
                assert g.key() == key == prod.key()
                assert element_to_json(g) == element_to_json(prod) and list(g.f) == list(prod.f)
                reentries += len((seen - present) & set(g.f))
                present = set(g.f)
                seen |= present
    assert reentries > 0
    # each prefix owns its cell map
    assert len({id(g.f) for g in forms}) == len(forms)


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


def _oracle_distances(form):
    """0/1 distances between the flow-support vertices of an S_{2,2} form
    and the identity, by a plain 0/1 Dijkstra over Z^2 from each vertex:
    an edge (p, p + e_i) with a nonzero count in form.f is free, every
    other edge costs one.  Returns {(a, b): distance}."""
    free = {(p, i) for p, (_, vec) in form.f.items() for i, c in enumerate(vec) if c}
    step = ((1, 0), (0, 1))
    points = {(0, 0)} | {p for p, _ in free} | {(p[0] + step[i][0], p[1] + step[i][1]) for p, i in free}
    dist = {}
    for src in points:
        best, settled, dq = {src: 0}, set(), deque([(0, src)])
        while not points <= settled:
            d, p = dq.popleft()
            if d > best[p]:
                continue
            settled.add(p)
            for i, (dx, dy) in enumerate(step):
                for q, edge in (((p[0] + dx, p[1] + dy), (p, i)), ((p[0] - dx, p[1] - dy), None)):
                    w = 0 if (edge or (q, i)) in free else 1
                    if d + w < best.get(q, d + w + 1):
                        best[q] = d + w
                        (dq.appendleft if w == 0 else dq.append)((d + w, q))
        dist.update(((src, p), best[p]) for p in points)
    return dist


def _assert_distances_match_oracle(form):
    comps, verts = magnus._support_components(form)
    oracle = _oracle_distances(form)
    assert {p for p, _ in oracle} == set(verts)
    D, lower = magnus._zero_one_distances(form, comps, verts)
    assert lower is D  # the Z^2 metric is exact
    for ci, a in enumerate(comps):
        assert all(oracle[a[0], k] == 0 for k in a)
        for cj, b in enumerate(comps):
            assert D[ci][cj] == oracle[a[0], b[0]]


def _brute_connection_cost(form):
    """The connection cost by enumerating every order of the flow-support
    components (classes at oracle distance zero; free endpoints)."""
    dist = _oracle_distances(form)
    reps = []
    for p in sorted({p for p, _ in dist}):
        if all(dist[p, r] for r in reps):
            reps.append(p)
    return min(
        sum(dist[a, b] for a, b in zip(order, order[1:]))
        for order in itertools.permutations(reps)
    )


def test_component_distances_against_oracle():
    rng = random.Random(61)
    words = [_loop_word(rng, m) for m in range(3, 10) for _ in range(2)]
    words += [_star_word(k) for k in (2, 3, 4)]
    for w in words:
        _assert_distances_match_oracle(S22.from_word(w).form)
    multi = 0
    for _, layer in ball_layers(S22, 7):
        for _, g in layer:
            if g.form.f and len(magnus._support_components(g.form)[0]) >= 2:
                _assert_distances_match_oracle(g.form)
                multi += 1
    assert multi > 0


def test_connection_cost_against_order_enumeration():
    rng = random.Random(61)
    words = [_loop_word(rng, m) for m in range(3, 9) for _ in range(2)]
    words += [_star_word(k) for k in (2, 3, 4)]
    for w in words:
        form = S22.from_word(w).form
        got = offsupport_connection_cost(form)
        assert got.exact
        assert got.value == _brute_connection_cost(form)


def _bfs_component_distances(form, comps, verts):
    """The component distance matrix by breadth-first search of the base's
    Cayley graph, each component contracted to a node: a search from each
    component until every later one is reached, support edges skipped
    (their heads lie in the tail's component)."""
    Q = form.base
    gens = [g for _, g in Q.generators()]
    steps = gens + [Q.invert(g) for g in gens]
    comp_of = {k: ci for ci, comp in enumerate(comps) for k in comp}
    m = len(comps)
    D = [[0] * m for _ in range(m)]
    for ci in range(m - 1):
        seen = set(comps[ci])
        frontier = [(k, verts[k]) for k in comps[ci]]
        level, left = 0, m - 1 - ci
        while left:
            level += 1
            reached = []
            for k, q in frontier:
                cell = form.f.get(k)
                for i, s in enumerate(steps):
                    if cell and i < len(gens) and cell[1][i]:
                        continue
                    h = Q.multiply(q, s)
                    hk = Q.key(h)
                    if hk in seen:
                        continue
                    cj = comp_of.get(hk)
                    if cj is None:
                        seen.add(hk)
                        reached.append((hk, h))
                        continue
                    seen.update(comps[cj])  # entering cj reaches all of it
                    reached.extend((k2, verts[k2]) for k2 in comps[cj])
                    if cj > ci:
                        D[ci][cj] = D[cj][ci] = level
                        left -= 1
            frontier = reached
    return D


def _conjugated_commutators(rng, count):
    """A product of `count` depth-2 nested commutators c, each conjugated
    by a short random word p: p c p^-1 is trivial in S_{2,2}, so in
    S_{2,3} each factor is a loop of Cay(S_{2,2}) out at p."""
    w = FreeWord(2, ())
    for _ in range(count):
        p = random_word(2, rng.randrange(1, 4), rng)
        w = w * p * nested_commutator_sample(2, 2, rng, base_length=1) * p.inverse()
    return w


def test_depth3_component_distances_against_bfs():
    S3 = solvable_group(2, 3)
    rng = random.Random(21)
    seen = {}
    for _ in range(40):
        form = S3.from_word(_conjugated_commutators(rng, rng.randrange(3, 5))).form
        comps, verts = magnus._support_components(form)
        if len(comps) >= 2:
            D, lower = magnus._zero_one_distances(form, comps, verts)
            assert D == lower == _bfs_component_distances(form, comps, verts)
            seen[len(comps)] = seen.get(len(comps), 0) + 1
    assert seen.get(2, 0) >= 10 and sum(n for m, n in seen.items() if m >= 3) >= 4


def test_component_distances_take_base_distances_only(monkeypatch):
    # the matrix is read from the base metric: at most one distance per pair
    # of vertices in different components, and no Cayley vertex multiplied out
    form = S22.from_word(_loop_word(random.Random(9), 9)).form
    comps, verts = magnus._support_components(form)
    assert len(comps) == 9
    sizes = [len(c) for c in comps]
    calls = {"distance": 0, "multiply": 0}
    distance, multiply = ZrHandle.distance, ZrHandle.multiply

    def counting_distance(self, a, b):
        calls["distance"] += 1
        return distance(self, a, b)

    def counting_multiply(self, a, b):
        calls["multiply"] += 1
        return multiply(self, a, b)

    monkeypatch.setattr(ZrHandle, "distance", counting_distance)
    monkeypatch.setattr(ZrHandle, "multiply", counting_multiply)
    magnus._zero_one_distances(form, comps, verts)
    assert 0 < calls["distance"] <= sum(a * b for a, b in itertools.combinations(sizes, 2))
    assert calls["multiply"] == 0


def test_one_handle_per_config():
    # a defaulted and a passed config share one handle, so wreath products
    # over it take _check_groups' identity fast path
    assert solvable_group(2, 2) is solvable_group(2, 2, DEFAULT) is solvable_group(2, 2, RunConfig())
    other = solvable_group(2, 2, DEFAULT.with_(travel_exact_max=3))
    assert other is not solvable_group(2, 2) and other.config.travel_exact_max == 3


def _steiner_length(form):
    """Word length in S_{2,2} from the Magnus form, by brute force over Z^2:
    total flow plus twice a minimum Steiner tree joining the flow-support
    components and the identity, support edges free (Dreyfus-Wagner, one
    0/1 Dijkstra per subset of components).  The search stays in the
    bounding box of the support: clamping a tree into it does not
    lengthen it."""
    flow = sum(abs(c) for _, vec in form.f.values() for c in vec)
    comps, _ = magnus._support_components(form)
    if len(comps) == 1:
        return flow
    free = {(p, i) for p, (_, vec) in form.f.items() for i, c in enumerate(vec) if c}
    pts = [p for comp in comps for p in comp]
    lo = [min(p[i] for p in pts) for i in (0, 1)]
    hi = [max(p[i] for p in pts) for i in (0, 1)]
    nodes = list(itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)))

    def edges(p):
        for i, s in itertools.product((0, 1), (1, -1)):
            q = (p[0] + (s if i == 0 else 0), p[1] + (s if i == 1 else 0))
            if lo[i] <= q[i] <= hi[i]:
                yield q, 0 if (p if s > 0 else q, i) in free else 1

    def spread(cost):
        dq = deque(sorted((d, p) for p, d in cost.items()))
        while dq:
            d, p = dq.popleft()
            if d > cost[p]:
                continue
            for q, w in edges(p):
                if d + w < cost.get(q, d + w + 1):
                    cost[q] = d + w
                    (dq.appendleft if w == 0 else dq.append)((d + w, q))
        return cost

    root, *rest = (comp[0] for comp in comps)
    best = {1 << i: spread({t: 0}) for i, t in enumerate(rest)}
    full = (1 << len(rest)) - 1
    for mask in range(1, full + 1):
        if mask not in best:
            subs = [s for s in range(1, mask) if s & mask == s and s < mask ^ s]
            best[mask] = spread({v: min(best[s][v] + best[mask ^ s][v] for s in subs) for v in nodes})
    return flow + 2 * best[full][root]


def test_steiner_length_matches_bfs_ball():
    multi = 0
    for dist, layer in ball_layers(S22, 6):
        for _, g in layer:
            assert _steiner_length(g.form) == dist
            multi += len(magnus._support_components(g.form)[0]) >= 2
    assert multi > 0
    # five components: the star words are geodesics, shorter than any path
    for k in (2, 3):
        assert _steiner_length(S22.from_word(_star_word(k)).form) == len(_star_word(k))


def _reference_component_distances(form):
    """The 0/1 component distances of an S_{2,3} form from brute-force
    S_{2,2} lengths: the nearest length between two components' vertices,
    closed under shortest paths (the reduction that
    test_depth3_component_distances_against_bfs checks against a search)."""
    comps, verts = magnus._support_components(form)
    m = len(comps)
    D = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        D[i][j] = D[j][i] = min(
            _steiner_length(S22.multiply(S22.invert(verts[a]), verts[b]).form)
            for a in comps[i] for b in comps[j]
        )
    for k, i, j in itertools.product(range(m), repeat=3):
        D[i][j] = min(D[i][j], D[i][k] + D[k][j])
    return D


def _depth3_star_word(p=None):
    """c p c p^-1 in S_{2,3}, with p the star word at k = 2 by default and
    c the depth-2 commutator [[x1, x2], [x1, x2^-1]]: three flow-support
    components, two of them joined through star-shaped elements of S_{2,2},
    whose path-TSP length is too long (ROADMAP item 1)."""
    x1, x2 = gen(2, 1), gen(2, 2)
    c = commutator(commutator(x1, x2), commutator(x1, x2.inverse()))
    p = _star_word(2) if p is None else p
    return c * p * c * p.inverse()


def test_depth3_component_distances_bracket_brute_force():
    # far and star-shaped base elements, beyond the reach of a search of
    # Cay(S_{2,2}): the two matrices bracket the brute-force distances,
    # and are them wherever they agree
    S3 = solvable_group(2, 3)
    rng = random.Random(23)
    words = [_depth3_star_word()] + [_depth3_star_word(_loop_word(rng, m)) for m in (2, 3, 3, 4)]
    words.append(_depth3_star_word(FreeWord(2, (1,) * 9)))
    exact = 0
    for w in words:
        form = S3.from_word(w).form
        comps, verts = magnus._support_components(form)
        D, lower = magnus._zero_one_distances(form, comps, verts)
        ref = _reference_component_distances(form)
        assert all(lo <= r <= d for L, R, U in zip(lower, ref, D) for lo, r, d in zip(L, R, U))
        if lower == D:
            assert D == ref
            exact += 1
    assert 0 < exact < len(words)


def test_depth3_connection_cost_through_a_star():
    # the star's S_{2,2} lengths read too long through the path-TSP, so the
    # component distances take bounds that the brute force confirms: 30 is
    # the true cost, but the lower bounds on the star's lengths stop at 25
    form = solvable_group(2, 3).from_word(_depth3_star_word()).form
    assert len(magnus._support_components(form)[0]) == 3
    assert _reference_component_distances(form) == [[0, 30, 1], [30, 0, 29], [1, 29, 0]]
    assert offsupport_connection_cost(form) == (30, False, 25)


_X1, _X2 = gen(2, 1), gen(2, 2)
_DEPTH2 = [
    commutator(commutator(_X1, _X2), commutator(_X1, _X2.inverse())),
    commutator(commutator(_X1, _X2), commutator(_X1.inverse(), _X2)),
    commutator(commutator(_X1, _X2.inverse()), commutator(_X1.inverse(), _X2)),
]


def _depth3_star_family(k):
    """p c p^-1 for p = x1^k, x1^-k, x2^k, x2^-k in turn, c the first of
    _DEPTH2: four loops of Cay(S_{2,2}) at distance k from the identity,
    joined most cheaply through it, a Steiner point of no component."""
    w = FreeWord(2, ())
    for p in (_X1.power(k), _X1.power(-k), _X2.power(k), _X2.power(-k)):
        w = w * p * _DEPTH2[0] * p.inverse()
    return w


def _conjugate_product(rng):
    """A reduced product of 2-4 factors p c p^-1, c drawn from _DEPTH2 and
    p a reduced word of length 1-5."""
    w = FreeWord(2, ())
    for _ in range(rng.randint(2, 4)):
        p = FreeWord(2, _reduced_letters(rng, rng.randint(1, 5)))
        w = w * p * rng.choice(_DEPTH2) * p.inverse()
    return w


@pytest.mark.parametrize("k, length", [(2, 76), (3, 84), (4, 92)])
def test_depth3_star_family_is_not_longer_than_its_word(k, length):
    # a path through the four loops is longer than the word; the spanning
    # tree through the identity is not, and no bound proves it optimal
    w = _depth3_star_family(k)
    got = geodesic_length(solvable_group(2, 3).from_word(w))
    assert len(w) == length
    assert got.lower <= got.value <= length and not got.exact


def _assert_below_the_word(S, words):
    """The upper-bound oracle: a word of g is a path to g, so neither
    |g|'s lower bound nor an exact |g| exceeds its length."""
    for w in words:
        got = geodesic_length(S.from_word(w))
        assert got.lower <= len(w)
        assert not got.exact or got.value <= len(w)


@pytest.mark.parametrize("d", [3, 4])
def test_lengths_are_bounded_by_their_words(d):
    rng = random.Random(5)
    words = [_conjugate_product(rng) for _ in range(30 if d == 3 else 15)]
    words += [_depth3_star_family(k) for k in (2, 3)]
    words += [_loop_word(rng, m) for m in (2, 4, 6)]
    _assert_below_the_word(solvable_group(2, d), words)


def test_one_component_lengths_are_bounded_by_their_words():
    rng = random.Random(5)
    words = []
    while len(words) < 40:
        w = random_word(2, rng.randint(1, 16), rng)
        if len(magnus._support_components(S22.from_word(w).form)[0]) == 1:
            words.append(w)
    _assert_below_the_word(S22, words)


@pytest.mark.xfail(strict=True, reason="the path-TSP connection cost over Z^r is not a Steiner tree (ROADMAP item 1)")
def test_star_lengths_are_bounded_by_their_words():
    _assert_below_the_word(S22, [_star_word(k) for k in range(2, 7)])


def test_connection_cost_caps_raise():
    # a connection cost that its bounds leave open is flagged, and a
    # distance in S_{2,3} that needs it raises rather than guess
    S3 = solvable_group(2, 3)
    g = S3.from_word(_depth3_star_word())
    assert geodesic_length(g) == (88, False, 78)
    with pytest.raises(BeyondCapError):
        S3.distance(S3.identity, g)


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


def test_depth3_decisions_take_no_lengths(monkeypatch):
    # support points join cosets by power membership alone, and membership
    # recurses through the forms with no length bound, so no length is taken
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
    assert calls["length"] == 0


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


def test_solvable_conjugator_reuses_an_image_witness(monkeypatch):
    # when the decision's first witness is an image, spelling it builds no
    # conjugator beyond the decision's own
    calls = []
    build = wreath.conjugator_for_z

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(wreath, "conjugator_for_z", counting)
    for S in (S22, solvable_group(2, 3)):
        for letters, g in (((1,), (2, 1)), ((1, 2), (2,)), ((1, 1, 2), (2, -1))):
            u = S.from_word(FreeWord(2, letters))
            gamma = S.from_word(FreeWord(2, g))
            v = S.multiply(S.multiply(S.invert(gamma), u), gamma)
            calls.clear()
            solvable_conjugacy_test(u, v)
            decided = len(calls)
            calls.clear()
            z = S.conjugator(u, v)
            assert z.word.letters == g and len(calls) == decided == 1


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
