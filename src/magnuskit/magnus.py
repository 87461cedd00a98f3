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

The same coordinates, read as a function on Cayley-graph edges, are the
net edge-traversal flow of the path w reads in Cay(Q), so lengths are read
off the image too.  Word length in F/N' is the total flow plus twice the
minimal number of off-support edges needed to visit every support vertex
together with the identity; the off-support connection cost is computed
over flow-support components with a 0/1-weight search and the path-TSP
kernel of the wreath metric (wreath.path_tsp).
"""

from functools import lru_cache
from collections import deque

from .config import DEFAULT, RunConfig
from .errors import BeyondCapError, InvariantViolation
from .fox import projected_derivatives
from .groups import GroupHandle, ZrHandle
from .wreath import (
    ConjugacyResult,
    Measure,
    WreathElement,
    base_part_candidates,
    conjugacy_test,
    conjugator_for_z,
    path_tsp,
    w_invert,
    w_length,
    w_multiply,
    wreath_element,
)
from .words import FreeWord, from_json as word_from_json, identity as word_identity, to_json as word_to_json


def magnus_embed(w: FreeWord, Q: GroupHandle, lamp: ZrHandle | None = None) -> WreathElement:
    """Image of the word w in Z^r wr Q."""
    r = w.rank
    A = lamp if lamp is not None else ZrHandle(r)
    ders, endpoint = projected_derivatives(w, Q)
    cells: dict = {}
    for i, der in enumerate(ders):
        for elem, coeff in der.terms():  # cells are keyed, so any order will do
            k = Q.key(elem)
            if k not in cells:
                cells[k] = (elem, [0] * r)
            cells[k][1][i] = coeff
    pairs = [(elem, tuple(vec)) for elem, vec in cells.values() if any(vec)]
    return wreath_element(A, Q, pairs, endpoint)


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


def _zero_one_distances(form: WreathElement, sources, targets, verts, config: RunConfig):
    """0/1-weight BFS from a vertex set: support edges are free, all other
    Cayley edges cost one.  Returns first-reached costs for target keys."""
    Q = form.base
    steps = [(i, g, Q.invert(g)) for i, (_, g) in enumerate(Q.generators(), start=1)]
    support = {(k, i) for k, (_, vec) in form.f.items() for i, c in enumerate(vec, start=1) if c}
    dist = {k: 0 for k in sources}
    elems = {k: verts[k] for k in sources}
    dq = deque((0, k) for k in sources)
    remaining = set(targets) - set(sources)
    found = {}
    explored = 0
    while dq and remaining:
        d, k = dq.popleft()
        if d > dist.get(k, d):
            continue
        if k in remaining:
            found[k] = d
            remaining.discard(k)
            if not remaining:
                break
        q = elems[k]
        explored += 1
        if explored > config.walk_node_cap:
            raise BeyondCapError("off-support search exceeded the node cap")
        for i, g, ginv in steps:
            forward = Q.multiply(q, g)
            backward = Q.multiply(q, ginv)
            bk = Q.key(backward)
            for head, hk, edge in (
                (forward, Q.key(forward), (k, i)),
                (backward, bk, (bk, i)),  # backwards crosses (head, head.x_i)
            ):
                w = 0 if edge in support else 1
                nd = d + w
                if nd > config.walk_cost_cap:
                    continue
                if nd < dist.get(hk, nd + 1):
                    dist[hk] = nd
                    elems[hk] = head
                    if w:
                        dq.append((nd, hk))
                    else:
                        dq.appendleft((nd, hk))
    return found


def offsupport_connection_cost(form: WreathElement, config: RunConfig = DEFAULT) -> Measure:
    """Minimal number of non-support edges in a walk visiting every support
    vertex and the identity; support edges may be reused freely.

    Within a support component travel is free, so the walk cost is a
    path-TSP over components in the 0/1 metric with free endpoints, solved
    by wreath.path_tsp: exact while the component count stays within
    config.travel_exact_max, a flagged upper bound beyond it.
    """
    if not form.f:
        return Measure.exactly(0)
    comps, verts = _support_components(form)
    m = len(comps)
    if m == 1:
        return Measure.exactly(0)
    key_to_comp = {}
    for ci, comp in enumerate(comps):
        for k in comp:
            key_to_comp[k] = ci
    D = [[0] * m for _ in range(m)]
    for ci in range(m):
        targets = [k for cj in range(ci + 1, m) for k in comps[cj]]
        if not targets:
            continue
        found = _zero_one_distances(form, comps[ci], targets, verts, config)
        best = {}
        for k, d in found.items():
            cj = key_to_comp[k]
            if cj not in best or d < best[cj]:
                best[cj] = d
        for cj in range(ci + 1, m):
            if cj not in best:
                raise BeyondCapError("support components not connected within the cost cap")
            D[ci][cj] = D[cj][ci] = best[cj]

    return path_tsp([0] * m, D, [0] * m, config)


# -- free solvable groups -------------------------------------------------------


class SolvableElement:
    """An element of S_{r,d} for d >= 2: its image under the Magnus
    embedding (the normal form), embedded from the representative word
    on first use unless given, plus that word for JSON and repr."""

    __slots__ = ("group", "word", "_form")

    def __init__(self, group: "SolvableGroup", word: FreeWord, form: WreathElement | None = None):
        if word.rank != group.r:
            raise ValueError("word rank does not match the group rank")
        self.group = group
        self.word = word
        self._form = form

    @property
    def form(self) -> WreathElement:
        if self._form is None:
            self._form = magnus_embed(self.word, self.group.base, self.group.lamp)
        return self._form

    @property
    def is_identity(self) -> bool:
        return self.form.is_identity

    def __eq__(self, other):
        return (
            isinstance(other, SolvableElement)
            and self.group == other.group
            and self.form.key() == other.form.key()
        )

    def __hash__(self):
        return hash(self.form.key())

    def __repr__(self):
        return f"SolvableElement(r={self.group.r}, d={self.group.d}, word={list(self.word.letters)})"


class SolvableGroup(GroupHandle):
    """S_{r,d} = F/F^(d) for d >= 2, as a handle.

    Arithmetic composes Magnus forms in Z^r wr S_{r,d-1} (the embedding is
    a homomorphism) and concatenates the representative words beside them;
    no reduced normal word is attempted.  Distance is the exact
    flow-length formula over the base quotient S_{r,d-1}, read off the
    form under the group's config.
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
        return a.form.key()

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

    def power_membership(self, x: SolvableElement, b: SolvableElement):
        if b.is_identity:
            raise ValueError("power query needs a nontrivial base")
        if x.is_identity:
            return 0
        # Cyclic subgroups are at most 2-distorted, so |x = b^k| forces
        # |k| <= 2|x|.
        bound = 2 * geodesic_length(x, self.config).value
        target = self.key(x)
        for sign in (1, -1):
            step = b if sign > 0 else self.invert(b)
            acc = step
            for k in range(1, bound + 1):
                if self.key(acc) == target:
                    return sign * k
                acc = self.multiply(acc, step)
        return None

    def conjugator(self, b: SolvableElement, c: SolvableElement):
        """Some z with b z = z c, as a word, or None.

        solvable_conjugacy_test decides.  If b's base part is e, the lift
        P_z of its witness's base part conjugates.  Otherwise the first
        candidate conjugator w = (h, z) of the Magnus forms that is an image
        (divergence delta_e - delta_z) is spelled as
        prod (P_q x_i P_{q x_i}^-1)^{v_i} * P_z over its flow cells, with
        one word P_q per vertex, empty at e, so the detours telescope.
        Images other than e are never inert, and for b != e some
        candidate's conjugator is an image, so the search is complete.  The
        word is re-embedded and verified before being returned.
        """
        res = solvable_conjugacy_test(b, c)
        if not res.conjugate:
            return None
        u, v, Q = b.form, c.form, self.base
        ekey = Q.key(Q.identity)
        gens = [g for _, g in Q.generators()]
        words = {ekey: word_identity(self.r)}

        def P(q):  # S_{r,d-1} elements carry a word; Z^r takes the axis path
            word = q.word if isinstance(q, SolvableElement) else FreeWord(
                self.r, [i if a > 0 else -i for i, a in enumerate(q, 1) for _ in range(abs(a))]
            )
            return words.setdefault(Q.key(q), word)

        def image_word():
            if Q.key(u.b) == ekey:
                return P(res.witness.b)
            for z in base_part_candidates(u, v):
                w = conjugator_for_z(u, v, z)
                zk = Q.key(z)
                if w is not None and divergence_of(w) == ({} if zk == ekey else {ekey: 1, zk: -1}):
                    word = word_identity(self.r)
                    for q, vec in w.f.values():
                        for i, (g, n) in enumerate(zip(gens, vec), 1):
                            if n:
                                loop = P(q) * FreeWord(self.r, (i,)) * P(Q.multiply(q, g)).inverse()
                                word = word * loop.power(n)
                    return word * P(z)
            raise InvariantViolation("conjugate pair has no image conjugator")

        z = self.from_word(image_word())
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
    """S_{r,d} under a run config, as a handle cached per config (the seed
    left out: no group operation reads it); derived length one is the
    abelianisation Z^r."""
    return _solvable_group(r, d, config.with_(seed=DEFAULT.seed))


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
    return u.form.key() == v.form.key()


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
