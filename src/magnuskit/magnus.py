"""The Magnus embedding and the free solvable groups built on it.

For a quotient Q = F/N of the rank-r free group, the embedding sends a
word w to the wreath element (f, b) over Z^r wr Q with b the image of w
and with the i-th coordinate of f at a vertex q equal to the coefficient
of q in the i-th projected Fox derivative of w.  Its kernel is the derived
subgroup N', so it gives normal forms, equality, exact word length, and a
conjugacy decision for the free solvable groups S_{r,d} = F/F^(d) through
the recursion S_{r,d} -> Z^r wr S_{r,d-1} (derived length one is Z^r).
The image is the one normal form of an element of S_{r,d}: products and
inverses are computed on images, and a word is embedded only when an
element is built from it.

A word is embedded in one walk over it per derived level, read as the
edge flow of its path (Myasnikov, Roman'kov, Ushakov and Vershik).  One
cell update (_cell_walk) serves every level above Z^r, each letter
changing one cell by w_multiply's rule, so every form built from a word
is the product of its letters' forms, representatives and cell order
included.  Only the levels below the top keep their prefixes: each is
keyed as the walk passes it, and its form and word are built when read.

The same coordinates, read as a function on Cayley-graph edges, are the
net edge-traversal flow of the path w reads in Cay(Q), so lengths are read
off the image too.  Word length in F/N' is the total flow plus twice the
minimal number of off-support edges needed to visit every support vertex
together with the identity.  The off-support connection cost takes the
distances between flow-support components from the base's own word
metric, the nearest base distance between two components closed under
shortest paths (bracketed by sound bounds over a free solvable base).
Over Z^r it orders the components with the path-TSP kernel of the wreath
metric (wreath.path_tsp); over a free solvable base it joins them by a
minimum spanning tree, exact only where a lower bound meets it.
"""

from functools import lru_cache

from .config import DEFAULT, RunConfig
from .errors import BeyondCapError, InvariantViolation
from .groups import GroupHandle, ZrHandle
from .wreath import (
    ConjugacyResult,
    FormKey,
    Measure,
    WreathElement,
    conjugacy_test,
    conjugators,
    path_tsp,
    w_invert,
    w_length,
    w_multiply,
    w_power_membership,
)
from .words import FreeWord, from_json as word_from_json, identity as word_identity, to_json as word_to_json


def magnus_embed(w: FreeWord, Q: GroupHandle, lamp: ZrHandle | None = None) -> WreathElement:
    """Image of the word w in Z^r wr Q: the cell map that _cell_walk builds
    over the images of w's prefixes in Q, ending at the image of w."""
    prefixes = _prefixes(w, Q)
    A = lamp if lamp is not None else ZrHandle(w.rank)
    return WreathElement(A, Q, _cell_walk(w, A, prefixes), prefixes[-1][0])


def _prefixes(w: FreeWord, Q: GroupHandle) -> list:
    """The images in Q of the prefixes w[:0], ..., w[:n], as (element, key)
    pairs: integer vectors in Z^r, the keyed prefixes of one flow walk per
    derived level in S_{r,d} (their forms built on first read), and a
    chain of products in any other Q."""
    gens = [g for _, g in Q.generators()]
    if len(gens) < w.rank:
        raise ValueError(f"quotient has {len(gens)} generators, word has rank {w.rank}")
    if isinstance(Q, SolvableGroup):
        return _flow_snapshots(w, Q, _prefixes(w, Q.base))
    if isinstance(Q, ZrHandle):
        vec = [0] * Q.r
        out = [(Q.identity, Q.identity)]
        for let in w.letters:
            vec[abs(let) - 1] += 1 if let > 0 else -1
            q = tuple(vec)
            out.append((q, q))
        return out
    steps = {i: g for i, g in enumerate(gens, 1)}
    steps.update({-i: Q.invert(g) for i, g in enumerate(gens, 1)})
    q = Q.identity
    out = [(q, Q.key(q))]
    for let in w.letters:
        q = Q.multiply(q, steps[let])
        out.append((q, Q.key(q)))
    return out


def _cell_walk(w: FreeWord, A: ZrHandle, below: list, step=None) -> dict:
    """The cell map (position key -> (representative, lamp vector)) of w's
    Magnus form over the images `below` of w's prefixes: x_i adds A's i-th
    generator at the prefix before it, x_i^-1 subtracts it at the prefix
    after it.  A cell keeps its place and the prefix at which it last
    became nonzero, w_multiply's rule.  step(position key, old cell, new
    cell), if given, sees each letter's change, None for an absent cell."""
    steps = {i: g for i, (_, g) in enumerate(A.generators(), 1)}  # x_i moves coordinate i
    steps.update({-i: A.invert(g) for i, g in list(steps.items())})
    cells: dict = {}
    for k, let in enumerate(w.letters):
        q, qk = below[k] if let > 0 else below[k + 1]
        vec = steps[let]
        old = cells.get(qk)
        if old is not None:
            q, vec = old[0], A.multiply(old[1], vec)
        if any(vec):
            cell = cells[qk] = (q, vec)
        else:
            cell = None
            del cells[qk]
        if step is not None:
            step(qk, old, cell)
    return cells


def _flow_snapshots(w: FreeWord, S: "SolvableGroup", below: list) -> list:
    """The prefixes of w in S = S_{r,d}, given their images `below` in
    S_{r,d-1}.  Beside the _cell_walk of w runs the set of the prefix's
    (position key, lamp vector) cells, and each prefix gets its FormKey
    now, a frozenset of that set (C-level, reusing stored hashes).  Its
    form is left to a _FlowWalk and its word to the element, which holds
    w and the prefix length k and slices w[:k] when first read."""
    live: set = set()
    walk = _FlowWalk(S, below)
    walk.keys.append(FormKey(below[0][1], frozenset()))

    def step(qk, old, cell):
        if old is not None:
            live.remove((qk, old[1]))
        if cell is not None:
            live.add((qk, cell[1]))
        walk.changes.append((qk, cell))
        walk.keys.append(FormKey(below[len(walk.changes)][1], frozenset(live)))

    _cell_walk(w, S.lamp, below, step)
    return [(SolvableElement(S, w, None, key, walk, k), key) for k, key in enumerate(walk.keys)]


class _FlowWalk:
    """The forms of the prefixes of one word at one derived level, built
    together on the first read of any by replaying the recorded cell
    changes (position key, new cell or None) into one running map, copied
    once per prefix.  Forms are indexed by prefix length, so the walk
    refers to no prefix element and they collect without the cycle
    collector."""

    __slots__ = ("group", "below", "keys", "changes", "forms")

    def __init__(self, group: "SolvableGroup", below: list):
        self.group = group
        self.below = below
        self.keys: list = []
        self.changes: list = []
        self.forms = None

    def form(self, k: int) -> WreathElement:
        if self.forms is None:
            A, B = self.group.lamp, self.group.base
            cells: dict = {}
            forms = [WreathElement(A, B, {}, self.below[0][0], self.keys[0])]
            for (qk, cell), (b, _), key in zip(self.changes, self.below[1:], self.keys[1:]):
                if cell is None:
                    del cells[qk]
                else:
                    cells[qk] = cell
                forms.append(WreathElement(A, B, dict(cells), b, key))
            self.forms, self.below, self.keys, self.changes = forms, None, None, None
        return self.forms[k]


# -- edge flows ----------------------------------------------------------------
# A Magnus form is its own edge flow: the cell at q with vector v carries the
# net count v[i-1] on the edge (q, q.x_i), zero counts meaning no edge.


def divergence_of(form: WreathElement) -> dict:
    """Net outflow per vertex of the form's edge flow: +1 at the identity,
    -1 at the endpoint, zero elsewhere (identically zero when the endpoint
    is the identity)."""
    Q = form.base
    gens = [g for _, g in Q.generators()]
    div: dict = {}
    for qk, (q, vec) in form.f.items():
        for g, c in zip(gens, vec):
            if c:
                hk = Q.key(Q.multiply(q, g))
                div[qk] = div.get(qk, 0) + c
                div[hk] = div.get(hk, 0) - c
    return {k: v for k, v in div.items() if v}


def _support_components(form: WreathElement):
    """Connected components of the flow-support subgraph, with the identity
    vertex adjoined as its own component when isolated."""
    Q = form.base
    gens = [g for _, g in Q.generators()]
    parent: dict = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    verts: dict = {}

    def register(k, elem):
        verts.setdefault(k, elem)
        parent.setdefault(k, k)

    ekey = Q.key(Q.identity)
    register(ekey, Q.identity)
    for qk, (q, vec) in form.f.items():
        register(qk, q)
        for g, c in zip(gens, vec):
            if c:
                head = Q.multiply(q, g)
                hk = Q.key(head)
                register(hk, head)
                union(qk, hk)

    comps: dict = {}
    for k in verts:
        comps.setdefault(find(k), []).append(k)
    return [sorted(c) for root, c in sorted(comps.items())], verts


def _closure(D):
    """Shortest-path closure (Floyd-Warshall) of a symmetric matrix, in place."""
    for k in range(len(D)):
        Dk = D[k]
        for row in D:
            rk = row[k]
            for j, via in enumerate(Dk):
                if rk + via < row[j]:
                    row[j] = rk + via
    return D


def _length_bounds(form: WreathElement):
    """(upper, lower) bounds on the word length of the element with this
    Magnus form: the total flow plus twice the cheapest connecting forest,
    bounded above by a spanning tree of the components (in the 0/1 upper
    matrix) and below by _forest_lower (in the lower one)."""
    flow = sum(abs(c) for _, vec in form.f.values() for c in vec)
    comps, verts = _support_components(form)
    if len(comps) == 1:
        return flow, flow
    up, low = _zero_one_distances(form, comps, verts)
    return flow + 2 * _spanning_tree(up), flow + 2 * _forest_lower(low)


def _spanning_tree(D) -> int:
    """Weight of a minimum spanning tree of the components (Prim): joining
    them along its edges is a connecting forest."""
    best, cost = list(D[0]), 0
    left = set(range(1, len(D)))
    while left:
        r = min(left, key=best.__getitem__)
        left.remove(r)
        cost += best[r]
        for s in left:
            best[s] = min(best[s], D[r][s])
    return cost


def _forest_lower(D) -> int:
    """A sound lower bound on the cheapest forest connecting the components:
    it holds a path between any two of them, and it crosses the ball around
    each component of radius half the distance to its nearest neighbour,
    balls that do not overlap."""
    nearest = [min(d for j, d in enumerate(row) if j != i) for i, row in enumerate(D)]
    return max(max(map(max, D)), -(-sum(nearest) // 2))


def _zero_one_distances(form: WreathElement, comps, verts):
    """Distance matrices (upper, lower) of the flow-support components in
    the 0/1 metric: support edges are free, every other Cayley edge costs
    one.  Support edges join vertices of one component only, so an
    off-support walk splits at the component vertices it touches into
    hops that each cost at least the base distance between their ends,
    which a base geodesic realises: the metric is the shortest-path
    closure of the nearest base distances between components, with no
    search of the Cayley graph.  Over Z^r the two matrices are one
    object; over S_{r,k}, k >= 2, whose own lengths can read too long,
    each base distance is bracketed by _length_bounds, and the two
    closures are exact where they agree.
    """
    Q = form.base
    elems = [[verts[k] for k in comp] for comp in comps]
    m = len(comps)
    up = [[0] * m for _ in range(m)]
    if not isinstance(Q, SolvableGroup):
        for i in range(m):
            for j in range(i + 1, m):
                up[i][j] = up[j][i] = min(Q.distance(a, b) for a in elems[i] for b in elems[j])
        return _closure(up), up
    low = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            pairs = [_length_bounds(w_multiply(w_invert(a.form), b.form)) for a in elems[i] for b in elems[j]]
            up[i][j] = up[j][i] = min(u for u, _ in pairs)
            low[i][j] = low[j][i] = min(lo for _, lo in pairs)
    return _closure(up), _closure(low)


def offsupport_connection_cost(form: WreathElement, config: RunConfig = DEFAULT) -> Measure:
    """Minimal number of non-support edges in a walk visiting every support
    vertex and the identity; support edges may be reused freely, and the
    component distances come from _zero_one_distances.

    Over Z^r (d = 2) the cost is read as a path-TSP over components with
    free endpoints (wreath.path_tsp): exact when the path meets its lower
    bound, the largest component distance, which also bounds the cheapest
    connecting forest; marked exact too while the component count stays
    within config.travel_exact_max, though the subset program certifies
    only the best path, which can be longer than the cheapest forest, the
    true cost (ROADMAP item 1); flagged otherwise.  At d >= 3 it is a
    minimum spanning tree of the upper matrix, a forest that a walk
    realises, exact only when it meets _forest_lower of the lower matrix:
    the cheapest forest may branch at elements of no component.
    """
    if not form.f:
        return Measure.exactly(0)
    comps, verts = _support_components(form)
    m = len(comps)
    if m == 1:
        return Measure.exactly(0)
    up, low = _zero_one_distances(form, comps, verts)
    if isinstance(form.base, SolvableGroup):
        value, lower = _spanning_tree(up), _forest_lower(low)
        return Measure(value, value == lower, lower)
    return path_tsp([0] * m, up, [0] * m, config)


# -- free solvable groups -------------------------------------------------------


class SolvableElement:
    """An element of S_{r,d} for d >= 2: its image under the Magnus
    embedding (the normal form), plus its representative word for JSON
    and repr.  The form is built on first use unless given: embedded from
    the word, or, for a prefix made by _flow_snapshots, read from its
    _FlowWalk.  Such a prefix carries its FormKey from the start, and it
    holds the walked word and its length k until .word is first read.
    """

    __slots__ = ("group", "_word", "_source", "_k", "_form", "_key", "_walk")

    def __init__(self, group: "SolvableGroup", word: FreeWord, form: WreathElement | None = None,
                 key: FormKey | None = None, walk: _FlowWalk | None = None, k: int | None = None):
        if word.rank != group.r:
            raise ValueError("word rank does not match the group rank")
        self.group = group
        if k is None:
            self._word, self._source = word, None
        else:
            self._word, self._source = None, word
        self._k = k
        self._form = form
        self._key = key
        self._walk = walk

    @property
    def word(self) -> FreeWord:
        if self._word is None:
            self._word = FreeWord(self.group.r, self._source.letters[: self._k], _reduced=True)
            self._source = None
        return self._word

    @property
    def form(self) -> WreathElement:
        if self._form is None:
            if self._walk is None:
                self._form = magnus_embed(self.word, self.group.base, self.group.lamp)
            else:
                self._form, self._walk = self._walk.form(self._k), None
        return self._form

    @property
    def is_identity(self) -> bool:
        return self.form.is_identity

    def __eq__(self, other):
        return (
            isinstance(other, SolvableElement)
            and self.group == other.group
            and self.group.key(self) == other.group.key(other)
        )

    def __hash__(self):
        return hash(self.group.key(self))

    def __repr__(self):
        return f"SolvableElement(r={self.group.r}, d={self.group.d}, word={list(self.word.letters)})"


class SolvableGroup(GroupHandle):
    """S_{r,d} = F/F^(d) for d >= 2, as a handle: arithmetic composes
    Magnus forms in Z^r wr S_{r,d-1} (the embedding is a homomorphism) and
    concatenates the representative words beside them, and distance is
    geodesic_length under the group's config, raising where not exact.
    """

    kind = "free_solvable"

    def __init__(self, r: int, d: int, config: RunConfig = DEFAULT):
        if d < 2:
            raise ValueError("use solvable_group(), which maps d=1 to Z^r")
        self.r = r
        self.d = d
        self.config = config
        self.base = solvable_group(r, d - 1, config)
        self.lamp = ZrHandle(r)
        self.identity = SolvableElement(self, word_identity(r))
        # built once, so each generator's form is embedded once per handle
        self._generators = [
            (f"x{i}", SolvableElement(self, FreeWord(r, (i,), _reduced=True)))
            for i in range(1, r + 1)
        ]

    def generators(self):
        return list(self._generators)

    def multiply(self, a: SolvableElement, b: SolvableElement) -> SolvableElement:
        return SolvableElement(self, a.word * b.word, w_multiply(a.form, b.form))

    def invert(self, a: SolvableElement) -> SolvableElement:
        return SolvableElement(self, a.word.inverse(), w_invert(a.form))

    def key(self, a: SolvableElement):
        return a._key or a.form.key()

    def from_word(self, w: FreeWord) -> SolvableElement:
        return SolvableElement(self, w)

    def distance(self, a: SolvableElement, b: SolvableElement) -> int:
        m = geodesic_length(self.multiply(self.invert(a), b), self.config)
        if not m.exact:
            raise BeyondCapError("geodesic length not exact within the configured thresholds")
        return m.value

    def order(self, a: SolvableElement):
        # Free solvable groups are torsion-free.
        return 1 if a.is_identity else None

    def distortion_window(self, x: SolvableElement, n: int) -> int:
        """S_{r,d} -> S_{r,d-1} is 1-Lipschitz, so a base part b != e takes
        the base's window; for b = e, x^m has form (m f, e) and length at
        least m times f's total flow."""
        f, b = x.form.f, x.form.b
        if self.base.key(b) != self.base.key(self.base.identity):
            return self.base.distortion_window(b, n)
        return n // sum(abs(c) for _, vec in f.values() for c in vec)

    def power_membership(self, x: SolvableElement, b: SolvableElement):
        """The wreath recursion on the Magnus forms (the embedding is injective)."""
        return w_power_membership(x.form, b.form)

    def conjugator(self, b: SolvableElement, c: SolvableElement):
        """Some z with b z = z c, as a word, or None.

        One walk over wreath.conjugators of the Magnus forms decides.  If
        b's base part is e, the lift P_z of the first witness's base part
        conjugates.  Otherwise the first witness w = (h, z) that is an
        image (divergence delta_e - delta_z) is spelled as
        prod (P_q x_i P_{q x_i}^-1)^{v_i} * P_z over its flow cells, with
        one word P_q per vertex, empty at e, so the detours telescope.
        Images other than e are never inert, and for b != e some
        candidate's conjugator is an image, so the walk is complete.  The
        word is re-embedded and verified before being returned.
        """
        u, v, Q = b.form, c.form, self.base
        found = conjugators(u, v)
        w = next(found, None)
        if w is None:
            return None
        ekey = Q.key(Q.identity)
        gens = [g for _, g in Q.generators()]
        words = {ekey: word_identity(self.r)}

        def P(q):  # S_{r,d-1} elements carry a word; Z^r takes the axis path
            word = q.word if isinstance(q, SolvableElement) else FreeWord(
                self.r, [i if a > 0 else -i for i, a in enumerate(q, 1) for _ in range(abs(a))]
            )
            return words.setdefault(Q.key(q), word)

        def is_image(x):
            zk = Q.key(x.b)
            return divergence_of(x) == ({} if zk == ekey else {ekey: 1, zk: -1})

        word = word_identity(self.r)
        if Q.key(u.b) != ekey:
            w = w if is_image(w) else next(filter(is_image, found), None)
            if w is None:
                raise InvariantViolation("conjugate pair has no image conjugator")
            for q, vec in w.f.values():
                for i, (g, n) in enumerate(zip(gens, vec), 1):
                    if n:
                        loop = P(q) * FreeWord(self.r, (i,)) * P(Q.multiply(q, g)).inverse()
                        word = word * loop.power(n)
        z = self.from_word(word * P(w.b))
        if self.key(self.multiply(b, z)) != self.key(self.multiply(z, c)):
            raise InvariantViolation("spelled conjugator failed verification")
        return z

    def to_json(self, a: SolvableElement):
        return {"r": self.r, "d": self.d, "word": word_to_json(a.word)}

    def from_json(self, data):
        if isinstance(data, dict):
            if int(data.get("r", self.r)) != self.r or int(data.get("d", self.d)) != self.d:
                raise ValueError("element JSON is for a different free solvable group")
            return SolvableElement(self, word_from_json(data["word"], self.r))
        return SolvableElement(self, word_from_json(data, self.r))

    def describe(self):
        return {"kind": "free_solvable", "r": self.r, "d": self.d}


def solvable_group(r: int, d: int, config: RunConfig = DEFAULT):
    """S_{r,d} under a run config, as one handle per (r, d, config), whether
    the config is passed or defaulted; derived length one is the
    abelianisation Z^r."""
    return _solvable_group(r, d, config)


@lru_cache(maxsize=None)
def _solvable_group(r: int, d: int, config: RunConfig):
    if r < 1 or d < 1:
        raise ValueError("rank and derived length must be positive")
    if d == 1:
        return ZrHandle(r)
    return SolvableGroup(r, d, config)


def solvable_eq(u: SolvableElement, v: SolvableElement) -> bool:
    """Equality in S_{r,d}: equality of Magnus normal forms."""
    if u.group != v.group:
        raise ValueError("elements of different free solvable groups")
    return u.group.key(u) == v.group.key(v)


def geodesic_length(g: SolvableElement, config: RunConfig = DEFAULT) -> Measure:
    """Exact word length of g in S_{r,d}, read off its Magnus form: total
    edge flow over Cay(S_{r,d-1}) plus twice the off-support connection
    cost."""
    conn = offsupport_connection_cost(g.form, config)
    total = sum(abs(c) for _, vec in g.form.f.values() for c in vec)
    return Measure(total + 2 * conn.value, conn.exact, total + 2 * conn.lower)


def bilipschitz_check(g: SolvableElement, config: RunConfig = DEFAULT):
    """Compare |g| with the wreath length of its Magnus image; the embedding
    changes lengths by at most a factor of two in either direction."""
    intrinsic = geodesic_length(g, config)
    embedded = w_length(g.form, config)
    if not (intrinsic.exact and embedded.exact):
        raise BeyondCapError("bilipschitz comparison needs both lengths exact")
    ok = intrinsic.value <= 2 * embedded.value and embedded.value <= 2 * intrinsic.value
    return intrinsic, embedded, ok


def solvable_conjugacy_test(u: SolvableElement, v: SolvableElement) -> ConjugacyResult:
    """Conjugacy in S_{r,d}, decided on the Magnus images.

    The base quotient S_{r,d-1} is torsion-free, so conjugacy of the images
    in the wreath product is equivalent to conjugacy upstairs and the
    wreath decision transfers verbatim.
    """
    if u.group != v.group:
        raise ValueError("elements of different free solvable groups")
    return conjugacy_test(u.form, v.form)
