"""Independent arithmetic for checking answers in S_{2,2} = Z^2 wr Z^2.

Nothing here imports magnuskit.  A word in x1, x2 reads a path in the
Cayley graph of Z^2; the Magnus image of the word is the net number of
times the path crosses each edge (q, q+e1) and (q, q+e2), stored at q,
together with the endpoint.  The benchmark uses these to pick inputs by
properties the program cannot influence and to check the program's
answers against a second implementation.
"""

from math import gcd


def reduce_letters(letters):
    out = []
    for let in letters:
        if out and out[-1] == -let:
            out.pop()
        else:
            out.append(let)
    return out


def inverse(letters):
    return [-let for let in reversed(letters)]


def commutator(a, b):
    return reduce_letters(a + b + inverse(a) + inverse(b))


def abelian_image(letters, rank=2):
    vec = [0] * rank
    for let in letters:
        vec[abs(let) - 1] += 1 if let > 0 else -1
    return tuple(vec)


def lamp_function(letters):
    """The Magnus image of a word in Z^2 wr Z^2 as ({q: (c1, c2)}, endpoint),
    where c_i is the net crossing count of the edge (q, q+e_i)."""
    f = {}
    x = y = 0
    for let in letters:
        i = abs(let) - 1
        step = (1, 0) if i == 0 else (0, 1)
        if let < 0:
            x, y = x - step[0], y - step[1]
        cell = f.setdefault((x, y), [0, 0])
        cell[i] += 1 if let > 0 else -1
        if let > 0:
            x, y = x + step[0], y + step[1]
    return {q: tuple(c) for q, c in f.items() if any(c)}, (x, y)


def flow_total(letters):
    """Sum of |net crossings| over all edges: a lower bound on the length
    of every word for the same element of S_{2,2}."""
    f, _ = lamp_function(letters)
    return sum(abs(c) for cell in f.values() for c in cell)


def travel_points(letters):
    """Support points of the Magnus image other than the identity and the
    endpoint: the point count of the travel problem in the wreath length."""
    f, end = lamp_function(letters)
    return len(set(f) - {(0, 0), end})


def flow_components(letters):
    """Connected components of the edges with nonzero flow, with the
    identity vertex counted as its own component when no such edge meets it."""
    f, _ = lamp_function(letters)
    parent = {(0, 0): (0, 0)}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (x, y), cell in f.items():
        for i, c in enumerate(cell):
            if c:
                head = (x + 1, y) if i == 0 else (x, y + 1)
                ra, rb = find((x, y)), find(head)
                if ra != rb:
                    parent[ra] = rb
    return len({find(v) for v in list(parent)})


def _coset_map(b):
    """A homomorphism Z^2 -> Z x Z/g (g = gcd of b) whose kernel is <b>."""
    p, q = b
    g = gcd(p, q)
    p1, q1 = p // g, q // g
    # Bezout coefficients s1*p1 + s2*q1 = 1.
    old_r, r, old_s, s = p1, q1, 1, 0
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
    s1 = old_s * old_r  # old_r is +-1
    s2 = (1 - s1 * p1) // q1 if q1 else 0
    return lambda x: (q1 * x[0] - p1 * x[1], (s1 * x[0] + s2 * x[1]) % g), g


def coset_projections(f, b):
    """Sums of the lamp values over each coset of <b>, keyed in Z^2/<b>
    (each point its own coset when b = 0), zero sums dropped, with the
    order of the quotient's torsion part (0 when b = 0)."""
    if b == (0, 0):
        return dict(f), 0
    key, mod = _coset_map(b)
    sums = {}
    for pos, val in f.items():
        k = key(pos)
        acc = sums.get(k, (0, 0))
        sums[k] = (acc[0] + val[0], acc[1] + val[1])
    return {k: s for k, s in sums.items() if s != (0, 0)}, mod


def is_inert(letters):
    """Whether every coset projection of the word's Magnus image vanishes."""
    f, b = lamp_function(letters)
    return not coset_projections(f, b)[0]


def conjugate_in_z2_wreath(u, v):
    """Whether the words u and v are conjugate in S_{2,2} = Z^2 wr Z^2.

    With (f, b) and (g, c) the Magnus images: conjugate iff b == c and the
    coset projections of f equal those of g after one translation of the
    quotient Z^2/<b> (for b = 0 the projections are f and g themselves).
    This is the coset-projection criterion for abelian lamp and base
    groups, implemented without the program's ball scan.
    """
    f, b = lamp_function(u)
    g, c = lamp_function(v)
    if b != c:
        return False
    pf, mod = coset_projections(f, b)
    pg, _ = coset_projections(g, b)
    if len(pf) != len(pg):
        return False
    if not pf:
        return True

    def shifted(k, s):
        return (k[0] - s[0], (k[1] - s[1]) % mod) if mod else (k[0] - s[0], k[1] - s[1])

    c0 = min(pf)
    for d in pg:
        if pg[d] != pf[c0]:
            continue
        shift = shifted(c0, d)
        if all(pg.get(shifted(k, shift)) == val for k, val in pf.items()):
            return True
    return False
