"""Concrete groups behind one uniform handle interface.

A handle supplies the identity, labelled generators, total multiply/invert,
a canonical key (equal keys iff equal elements), an exact left-invariant
word metric (``distance``, and ``distances`` for a whole row of it: the
default loops over ``distance``, and ZrHandle answers the row in one
pass), order and power queries, a conjugacy decision with a
conjugator, and for an infinite group a window of powers x^m that can lie
within a given radius.  Shipped handles:

    ZrHandle        Z^r with the L1 metric (closed form)
    ZNHandle        Z/N with the cyclic metric (closed form)
    PermHandle      a small symmetric group (BFS over the whole group)
    HeisenbergHandle  the discrete Heisenberg group (closed form)
    FreeHandle      the free group itself (reduced length, closed form)

``ball``/``ball_layers`` give the breadth-first oracle used to cross-check
every closed-form or formula-based length in the tests.

Handles are immutable after construction, apart from the permutation
group's distance table: it is built on first use, and racing builders build
the same table, so concurrent readers are safe.
"""

import json
from bisect import bisect_left
from math import gcd, isqrt, lcm
from operator import add, sub

from .words import FreeWord, identity as word_identity

class GroupHandle:
    """Base class; concrete handles fill in the element operations."""

    kind = "?"
    is_abelian = False
    is_finite = False

    # -- required operations -------------------------------------------
    # identity (attribute), generators(), multiply, invert, key, distance,
    # order, power_membership, conjugator, to_json, from_json, describe;
    # infinite groups add distortion_window(x, n): a W with |x^m| > n for m > W.
    # distances(a, points) is optional: the default below loops over distance

    def generators(self):
        raise NotImplementedError

    def from_word(self, w: FreeWord):
        """The product of the generators (or their inverses) a word spells."""
        gens = [g for _, g in self.generators()]
        if any(abs(let) > len(gens) for let in w.letters):
            raise ValueError(f"word uses generators beyond the {len(gens)} available")
        acc = self.identity
        for let in w.letters:
            g = gens[abs(let) - 1]
            acc = self.multiply(acc, g if let > 0 else self.invert(g))
        return acc

    def distances(self, a, points) -> list:
        """The row [distance(a, p) for p in points], raising where distance
        does; handles with a closed-form metric override it to answer the row
        in one pass.  A row reads d(a, p) only: a metric whose exactness rests
        on path_tsp can certify d(p, a) and raise on d(a, p)."""
        return [self.distance(a, p) for p in points]

    def power(self, b, k: int):
        """b^k by iterated multiplication; handles override when closed forms exist."""
        base = b if k >= 0 else self.invert(b)
        acc = self.identity
        for _ in range(abs(k)):
            acc = self.multiply(acc, base)
        return acc

    def gen_steps(self):
        """Signed generator list [(label, element)] for BFS and travel."""
        steps = []
        for label, g in self.generators():
            steps.append((label, g))
            steps.append((label + "^-1", self.invert(g)))
        return steps

    def conjugator(self, b, c):
        """Some z with b z = z c, or None: the identity for equal elements,
        None in an abelian group, a whole search in a finite one."""
        if self.key(b) == self.key(c):
            return self.identity
        if self.is_abelian:
            return None
        for _, z in enumerate_finite(self):  # raises for an infinite group
            if self.key(self.multiply(b, z)) == self.key(self.multiply(z, c)):
                return z
        return None

    def describe(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GroupHandle) and self.describe() == other.describe()
        )

    def __hash__(self):
        return hash(json.dumps(self.describe(), sort_keys=True))

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"


def handle_from_descriptor(desc: dict) -> GroupHandle:
    """Build a handle from its descriptor JSON, which must be an object.

    ``{"kind":"free_solvable","r":r,"d":1}`` normalises to Z^r: derived
    length one is the abelianisation.  A Heisenberg descriptor's ``"cap"``
    is ignored: its metric is a closed form.
    """
    if not isinstance(desc, dict):
        raise ValueError(f"group descriptor must be a JSON object, not {desc!r}")
    kind = desc.get("kind")
    if kind == "Zr":
        return ZrHandle(int(desc["r"]))
    if kind == "ZN":
        return ZNHandle(int(desc["N"]))
    if kind == "heisenberg":
        return HeisenbergHandle()
    if kind == "perm":
        return PermHandle(int(desc.get("degree", 3)))
    if kind == "free":
        return FreeHandle(int(desc["rank"]))
    if kind == "free_solvable":
        from .magnus import solvable_group

        return solvable_group(int(desc["r"]), int(desc["d"]))
    raise ValueError(f"unknown group descriptor kind {kind!r}")


# -- breadth-first machinery --------------------------------------------


def ball_layers(handle: GroupHandle, max_radius=None):
    """Yield (radius, [(key, element), ...]) shells in breadth-first order.

    Shells are sorted by key, so iteration order is canonical.  Stops after
    ``max_radius`` or when the group is exhausted.
    """
    e = handle.identity
    seen = {handle.key(e)}
    layer = [(handle.key(e), e)]
    yield 0, layer
    steps = [g for _, g in handle.gen_steps()]
    radius = 0
    while layer and (max_radius is None or radius < max_radius):
        nxt = {}
        for _, x in layer:
            for s in steps:
                y = handle.multiply(x, s)
                k = handle.key(y)
                if k not in seen:
                    seen.add(k)
                    nxt[k] = y
        radius += 1
        layer = sorted(nxt.items())
        if not layer:
            return
        yield radius, layer


def ball(handle: GroupHandle, radius: int) -> dict:
    """All elements within the radius, as an ordered dict key -> (element, distance)."""
    out = {}
    for r, layer in ball_layers(handle, radius):
        for k, x in layer:
            out[k] = (x, r)
    return out


def enumerate_finite(handle: GroupHandle):
    """All elements of a finite group, in breadth-first canonical order."""
    if not handle.is_finite:
        raise ValueError(f"{handle.kind} is not finite")
    out = []
    for _, layer in ball_layers(handle, None):
        out.extend(layer)
    return out


def edge_traversal_counts(handle: GroupHandle, word: FreeWord):
    """Net signed edge-traversal counts of the path a word reads in the
    Cayley graph of the handle.

    Walks the graph step by step: a ``+i`` step at vertex q crosses the
    edge (q, q·x_i) forwards (+1); a ``-i`` step crosses (q·x_i^-1, q)
    backwards (-1).  Returns (counts, vertices, endpoint) where counts maps
    (key(q), i) to the net count and vertices maps keys back to elements.

    This is the graph-side oracle for the ring-side prefix derivatives: the
    two are computed by unrelated code paths and compared in the tests.
    """
    gens = [g for _, g in handle.generators()]
    q = handle.identity
    counts = {}
    vertices = {handle.key(q): q}
    for let in word.letters:
        i = abs(let)
        g = gens[i - 1]
        if let > 0:
            ek = (handle.key(q), i)
            counts[ek] = counts.get(ek, 0) + 1
            q = handle.multiply(q, g)
        else:
            q = handle.multiply(q, handle.invert(g))
            ek = (handle.key(q), i)
            counts[ek] = counts.get(ek, 0) - 1
        vertices.setdefault(handle.key(q), q)
    counts = {ek: c for ek, c in counts.items() if c}
    return counts, vertices, q


# -- Z^r ------------------------------------------------------------------


class ZrHandle(GroupHandle):
    """Z^r as integer tuples; distance is the L1 norm of the difference."""

    kind = "Zr"
    is_abelian = True

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("rank must be positive")
        self.r = r
        self.identity = (0,) * r

    def generators(self):
        out = []
        for i in range(self.r):
            v = [0] * self.r
            v[i] = 1
            out.append((f"x{i + 1}", tuple(v)))
        return out

    def multiply(self, a, b):
        return tuple(map(add, a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def power(self, b, k):
        return tuple(k * x for x in b)

    def key(self, a):
        return tuple(a)

    def from_word(self, w: FreeWord):
        vec = [0] * self.r
        for let in w.letters:
            vec[abs(let) - 1] += 1 if let > 0 else -1
        return tuple(vec)

    def distance(self, a, b) -> int:
        return sum(abs(y - x) for x, y in zip(a, b))

    def distances(self, a, points) -> list:
        # r = 1 and 2 unpacked: 4-6x faster per row than the general map
        if self.r == 1:
            (x,) = a
            return [abs(p - x) for (p,) in points]
        if self.r == 2:
            x, y = a
            return [abs(p - x) + abs(q - y) for p, q in points]
        return [sum(map(abs, map(sub, p, a))) for p in points]

    def distortion_window(self, x, n: int) -> int:
        return n // self.distance(self.identity, x)  # |x^m| = m |x|

    def order(self, a):
        return 1 if a == self.identity else None

    def power_membership(self, x, b):
        if b == self.identity:
            raise ValueError("power query needs a nontrivial base")
        j = next(i for i, c in enumerate(b) if c)
        if x[j] % b[j]:
            return None
        k = x[j] // b[j]
        return k if self.power(b, k) == tuple(x) else None

    def to_json(self, a):
        return list(a)

    def from_json(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != self.r:
            raise ValueError(f"expected a length-{self.r} integer vector")
        return tuple(int(x) for x in data)

    def describe(self):
        return {"kind": "Zr", "r": self.r}


# -- Z/N ------------------------------------------------------------------


class ZNHandle(GroupHandle):
    """The finite cyclic group Z/N; distance is min(k, N-k)."""

    kind = "ZN"
    is_abelian = True
    is_finite = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = n
        self.identity = 0

    def generators(self):
        return [("x1", 1 % self.n)]

    def multiply(self, a, b):
        return (a + b) % self.n

    def invert(self, a):
        return (-a) % self.n

    def power(self, b, k):
        return (b * k) % self.n

    def key(self, a):
        return a % self.n

    def distance(self, a, b) -> int:
        d = (b - a) % self.n
        return min(d, self.n - d)

    def order(self, a):
        return self.n // gcd(a % self.n, self.n) if a % self.n else 1

    def power_membership(self, x, b):
        b %= self.n
        if not b:
            raise ValueError("power query needs a nontrivial base")
        g = gcd(b, self.n)
        if x % g:
            return None
        m = self.n // g
        return (x // g) * pow(b // g, -1, m) % m if m > 1 else 0

    def to_json(self, a):
        return int(a)

    def from_json(self, data):
        return int(data) % self.n

    def describe(self):
        return {"kind": "ZN", "N": self.n}


# -- small permutation groups ----------------------------------------------


class PermHandle(GroupHandle):
    """The symmetric group on ``degree`` points, generated by the adjacent
    swap (0 1) and the full cycle; elements are image tuples."""

    kind = "perm"
    is_finite = True

    def __init__(self, degree: int):
        if degree < 2:
            raise ValueError("degree must be at least 2")
        self.degree = degree
        self.identity = tuple(range(degree))
        self._dist = None

    def generators(self):
        swap = list(range(self.degree))
        swap[0], swap[1] = swap[1], swap[0]
        gens = [("x1", tuple(swap))]
        if self.degree > 2:
            cycle = tuple(list(range(1, self.degree)) + [0])
            gens.append(("x2", cycle))
        return gens

    def multiply(self, a, b):
        # a then b, acting on points: (a*b)(p) = b(a(p))
        return tuple(b[a[p]] for p in range(self.degree))

    def invert(self, a):
        out = [0] * self.degree
        for p, q in enumerate(a):
            out[q] = p
        return tuple(out)

    def key(self, a):
        return tuple(a)

    def _distances(self):
        if self._dist is None:
            self._dist = {k: r for r, layer in ball_layers(self, None) for k, _ in layer}
        return self._dist

    def distance(self, a, b) -> int:
        return self._distances()[self.key(self.multiply(self.invert(a), b))]

    def order(self, a):
        seen = set()
        n = 1
        for p in range(self.degree):
            if p in seen:
                continue
            length, q = 0, p
            while q not in seen:
                seen.add(q)
                q = a[q]
                length += 1
            n = lcm(n, length)
        return n

    def power_membership(self, x, b):
        if b == self.identity:
            raise ValueError("power query needs a nontrivial base")
        acc = self.identity
        for k in range(self.order(b)):
            if acc == tuple(x):
                return k
            acc = self.multiply(acc, b)
        return None

    def to_json(self, a):
        return list(a)

    def from_json(self, data):
        p = tuple(int(x) for x in data)
        if sorted(p) != list(range(self.degree)):
            raise ValueError(f"not a permutation of {self.degree} points")
        return p

    def describe(self):
        return {"kind": "perm", "degree": self.degree}


# -- discrete Heisenberg group ----------------------------------------------


class HeisenbergHandle(GroupHandle):
    """The integer Heisenberg group in upper-triangular normal form.

    Elements are triples (a, b, c) standing for the matrix with top row
    (1, a, c) and middle row (0, 1, b).  Generators are x1 = (1,0,0) and
    x2 = (0,1,0); their commutator is the central element (0,0,1).
    Distances are an exact closed form (``norm``) at every radius; ``cap``
    is kept for callers that size their own BFS oracles, and never read.
    """

    kind = "heisenberg"

    def __init__(self, cap: int = 8):
        self.cap = cap
        self.identity = (0, 0, 0)

    def generators(self):
        return [("x1", (1, 0, 0)), ("x2", (0, 1, 0))]

    def multiply(self, u, v):
        return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])

    def invert(self, u):
        a, b, c = u
        return (-a, -b, -c + a * b)

    def power(self, u, k):
        a, b, c = u
        return (k * a, k * b, k * c + (k * (k - 1) // 2) * a * b)

    def key(self, u):
        return tuple(u)

    def norm(self, u) -> int:
        """Word length of u = (a, b, c), exactly.

        Words of length L reading (a, b, ?) read every c in
        [-_sweep_max(-a, b, L), _sweep_max(a, b, L)]: an adjacent swap of
        letters moves c by at most 1, and putting every x2^±1 first reads 0.
        The interval grows with L (append x1 x1^-1), so |u| is the least
        L >= |a| + |b| of the parity of a + b whose interval holds c; it is
        bisected up to |a| + |b| + 4k, k = ceil(sqrt|c|), where S = |b| + 2k
        vertical steps already sweep k^2.
        """
        a, b, c = u
        if c < 0:
            a, c = -a, -c
        lo = abs(a) + abs(b)
        k = isqrt(c - 1) + 1 if c else 0
        lengths = range(lo, lo + 4 * k + 1, 2)
        return lo + 2 * bisect_left(lengths, c, key=lambda L: _sweep_max(a, b, L))

    def distance(self, a, b) -> int:
        return self.norm(self.multiply(self.invert(a), b))

    def distortion_window(self, x, n: int) -> int:
        """|x^m| >= m(|a| + |b|) for x = (a, b, c); a central x^m = (0, 0, mc)
        has length <= n iff m|c| <= _sweep_max(0, 0, n - n % 2): exact."""
        a, b, c = x
        return n // (abs(a) + abs(b)) if a or b else _sweep_max(0, 0, n - n % 2) // abs(c)

    def order(self, a):
        return 1 if tuple(a) == self.identity else None

    def power_membership(self, x, b):
        a1, b1, c1 = b
        if b == self.identity:
            raise ValueError("power query needs a nontrivial base")
        x = tuple(x)
        if a1:
            k, r = divmod(x[0], a1)
        elif b1:
            k, r = divmod(x[1], b1)
        else:
            k, r = divmod(x[2], c1)
        return k if (r == 0 and self.power(b, k) == x) else None

    def conjugator(self, u, v):
        # (x,y,z)^-1 (a,b,c) (x,y,z) = (a, b, c + a*y - b*x), so c may move
        # by any multiple of gcd(a, b), found with an extended gcd
        (a, b, c), (a2, b2, c2) = u, v
        g, s, t = _extended_gcd(a, b)
        k, rest = divmod(c2 - c, g) if g else (0, c2 - c)
        if (a, b) != (a2, b2) or rest:
            return None
        return (-t * k, s * k, 0)

    def to_json(self, a):
        return list(a)

    def from_json(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ValueError("expected an integer triple")
        return tuple(int(x) for x in data)

    def describe(self):
        return {"kind": "heisenberg"}


def _sweep_max(a: int, b: int, L: int) -> int:
    """The largest c read by a word of length L reading (a, b, c), for
    L >= |a| + |b| of the parity of a + b.

    A word is a lattice path from (0, 0) to (a, b); an x2^±1 step at
    abscissa x adds ±x to c.  With S vertical steps, U up and D down, and
    abscissae in [m, M], c <= U*M - D*m, and the L - S horizontal steps
    give M - m <= W = (L - S + |a|)/2.  For b >= 0 (U - D = b) the best
    range is [-q, W - q], q = max(0, -a) being how far left of 0 the path
    must go, so c <= U*W - b*q = (S + b)(L + |a| - S)/4 - b*q, attained by
    the x2^-1 steps at -q and the x2 steps at W - q; b < 0 is the mirror
    image.  The bound is a parabola in S with the integer vertex
    (L + |a| - |b|)/2, so the best S = b (mod 2) in [|b|, L - |a|] is the
    vertex, or else the tied neighbour below it, clamped into that range.
    """
    q = max(0, -a) if b >= 0 else max(0, a)
    a, b = abs(a), abs(b)
    s = min(max(b + 2 * ((L + a - 3 * b) // 4), b), L - a)
    return (s + b) * (L + a - s) // 4 - b * q


def _extended_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b == g == gcd(a, b)."""
    if b == 0:
        return abs(a), (a > 0) - (a < 0), 0
    g, s, t = _extended_gcd(b, a % b)
    return g, t, s - (a // b) * t


# -- the free group as a handle ----------------------------------------------


class FreeHandle(GroupHandle):
    """The rank-r free group on reduced words; distance is reduced length."""

    kind = "free"

    def __init__(self, rank: int):
        self.rank = rank
        self.identity = word_identity(rank)

    def generators(self):
        return [(f"x{i}", FreeWord(self.rank, (i,), _reduced=True)) for i in range(1, self.rank + 1)]

    def multiply(self, a, b):
        return a * b

    def invert(self, a):
        return a.inverse()

    def key(self, a):
        return a.letters

    def from_word(self, w: FreeWord):
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        return w

    def distance(self, a, b) -> int:
        return len(a.inverse() * b)

    def distortion_window(self, x, n: int) -> int:
        return n  # x^m reduces to at least m letters

    def order(self, a):
        return 1 if a.is_identity else None

    def power_membership(self, x, b):
        if b.is_identity:
            raise ValueError("power query needs a nontrivial base")
        if x.is_identity:
            return 0
        # |b^k| grows strictly with |k|, so the scan below is complete.
        for sign in (1, -1):
            step = b if sign > 0 else b.inverse()
            acc = step
            k = 1
            while len(acc) <= len(x):
                if acc == x:
                    return sign * k
                acc = acc * step
                k += 1
        return None

    def conjugator(self, b, c):
        """Cyclically reduce b = p b0 p^-1 and c = q c0 q^-1; they are
        conjugate iff c0 is a rotation s r of b0 = r s, and then p r q^-1
        conjugates."""
        cores = []
        for w in (b, c):
            L, k = w.letters, 0
            while 2 * k + 1 < len(L) and L[k] == -L[-1 - k]:
                k += 1
            cores.append((FreeWord(self.rank, L[:k], _reduced=True), L[k : len(L) - k]))
        (p, b0), (q, c0) = cores
        for i in range(max(len(b0), 1)):
            if b0[i:] + b0[:i] == c0:
                return p * FreeWord(self.rank, b0[:i], _reduced=True) * q.inverse()
        return None

    def to_json(self, a):
        return list(a.letters)

    def from_json(self, data):
        return FreeWord(self.rank, data)

    def describe(self):
        return {"kind": "free", "rank": self.rank}
