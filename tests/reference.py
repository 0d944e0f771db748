"""Reference oracles: the t-root laws one pair or one string at a time, and
root generation by walking every root string.

Each oracle reads only the public data of a t-root system: the positive
spaces (``trsys.spaces``, each a mask over ``trsys.rs.indexed``, decoded
here bit by bit), the roots (``trsys.rs.roots``) and the Gram matrix
(``trsys.rs.gram``).  The negative t-roots are built here from the
positive ones by negating tuples: the keys in ``troot_keys``, and the
space at -nu as the negatives of the roots at nu, never by the mask mirror
or the sum table.  The exact pairing ``inner`` is computed
here, by ``Fraction`` algebra on the Schur complement of the kept Gram
block (``schur_form``), not read from the integer form the sweep uses.
The oracles work on root tuples and keys directly, and share no code with
the sweep in ``leviroots.checks``: no sum table, no key encoding, no
pairing table.  Their failure texts are the sweep's, so a reference report
can be matched against a sweep report.

``generate`` is the closure that ``leviroots.rootsys.generate`` replaced:
it walks every alpha_i string down through a set of root tuples and sums
every pairing afresh, and finds the symmetrizers with ``Fraction``.  It
encodes no root, and returns the positives and the symmetrizers alone.
``form`` is the symmetrized Cartan form of two coefficient vectors, summed
entry by entry on the Gram matrix, and ``cartan_of`` the Cartan-type matrix
of a list of vectors by dense dot products, against which the sparse
``leviroots.bds._cartan_of`` is tested.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul
from typing import NamedTuple

from leviroots.errors import InvalidCartan, NotFiniteType
from leviroots.rootsys import _max_positive_count, _validate_cartan
from conftest import fraction_solve


def _shift(key, step, j=1):
    """key + j * step, entry by entry."""
    return tuple(a + j * b for a, b in zip(key, step))


def _negated(v):
    return tuple(-c for c in v)


def troot_keys(trsys):
    """Every t-root key: the negatives of the positive keys, in reverse,
    then the positive keys."""
    return tuple(map(_negated, reversed(trsys.spaces))) + tuple(trsys.spaces)


def _troot(trsys, key):
    key = tuple(key)
    if key not in troot_keys(trsys):
        raise ValueError(f"{key} is not a t-root here")
    return key


def _roots(trsys, key):
    """The roots of the space at key: at a positive key in numbering order,
    at a negative one the negatives of the roots at its negative."""
    negative = key not in trsys.spaces
    mask = trsys.spaces[_negated(key) if negative else key]
    roots = [phi for i, phi in enumerate(trsys.rs.indexed) if mask >> i & 1]
    return list(map(_negated, roots)) if negative else roots


@lru_cache(maxsize=64)
def schur_form(des):
    """The exact t-root form by Fraction algebra: G_DD - G_DK G_KK^-1 G_KD,
    with K the kept and D the deleted nodes."""
    gram, K, D = des.rs.gram, des.kept0, des.deleted0
    span = [[gram[a][b] for b in K] for a in K]
    coeffs = [fraction_solve(span, [gram[a][d] for a in K]) if K else () for d in D]
    return tuple(tuple(gram[x][y] - sum(c * gram[a][y] for c, a in zip(coeffs[i], K))
                       for y in D) for i, x in enumerate(D))


def inner(trsys, k1, k2):
    """Exact pairing of two key combinations under the ambient form."""
    form = schur_form(trsys.designation)
    return sum(Fraction(a) * form[i][j] * b
               for i, a in enumerate(k1) for j, b in enumerate(k2))


def _acts(trsys, w, e):
    """Whether some root of the space at w adds to some root of the space
    at e within Delta u {0}."""
    roots = trsys.rs.roots
    return any(not any(s) or s in roots
               for phi in _roots(trsys, w) for psi in _roots(trsys, e)
               for s in [_shift(phi, psi)])


def bracket_image(trsys, mu, nu):
    """Root set of [g_mu, g_nu]: every root phi + psi with phi at mu and psi
    at nu, in (height, lex) order.

    Equals the root set of g_{mu+nu} when mu + nu is a t-root, and is empty
    otherwise.  Rejects mu + nu = 0, where the bracket lands in the Levi
    factor instead of a t-root space.
    """
    mu, nu = _troot(trsys, mu), _troot(trsys, nu)
    if not any(_shift(mu, nu)):
        raise ValueError("mu + nu = 0: the bracket lands in the Levi factor")
    roots = trsys.rs.roots
    image = {s for phi in _roots(trsys, mu) for psi in _roots(trsys, nu)
             for s in [_shift(phi, psi)] if s in roots}
    return tuple(sorted(image, key=lambda r: (sum(r), r)))


def sign_rule(trsys, mu, nu):
    """The failure texts of the sign rule for the t-roots mu and nu.

    (mu, nu) < 0 forces mu + nu to be a t-root (when nonzero), (mu, nu) > 0
    forces mu - nu (when nonzero), and (mu, nu) = 0 makes the two
    memberships equal.  For mu = nu the difference is zero and the rule is
    (nu, nu) > 0.
    """
    mu, nu = _troot(trsys, mu), _troot(trsys, nu)
    s = inner(trsys, mu, nu)
    if mu == nu:
        return [] if s > 0 else [f"({mu},{nu}) is not positive"]
    troots = set(troot_keys(trsys))
    plus, minus = _shift(mu, nu), _shift(mu, nu, -1)
    if s < 0 and any(plus) and plus not in troots:
        return [f"({mu},{nu}) < 0 but the sum is not a t-root"]
    if s > 0 and any(minus) and minus not in troots:
        return [f"({mu},{nu}) > 0 but the difference is not a t-root"]
    if s == 0 and (plus in troots) != (minus in troots):
        return [f"({mu},{nu}) = 0 but sum/difference membership differs"]
    return []


def string_report(trsys, gamma, nu):
    """The nu-string through the t-weight gamma: ``(p, q, failure texts)``.

    gamma is a t-root key, or None or zeros for the zero weight.  The line
    holds every j with gamma + j*nu a t-weight (a t-root or zero), and p
    and q are its least and greatest j.  Each maximal run of consecutive j
    is checked: a singleton must be orthogonal to nu; otherwise its top
    must pair positively and its bottom negatively with nu, and at each
    nonzero weight g_nu must act nonzero below the top and g_-nu above the
    bottom (``_acts``).  A gap in the line shows as failures at its edges.
    """
    nu = _troot(trsys, nu)
    zero = (0,) * len(nu)
    gamma = zero if gamma is None or not any(gamma) else _troot(trsys, gamma)
    weights = {zero, *troot_keys(trsys)}
    # at a nonzero entry of nu, |j| <= |j * nu| = |weight - gamma| <= bound
    bound = 2 * max(max(map(abs, k)) for k in weights)
    line = [j for j in range(-bound, bound + 1) if _shift(gamma, nu, j) in weights]
    minus_nu = _negated(nu)
    failures = []
    for j in line:
        w = _shift(gamma, nu, j)
        raised, lowered = j + 1 in line, j - 1 in line
        s = inner(trsys, w, nu)
        if not (raised or lowered):
            if s:
                failures.append(f"singleton string at {w} along {nu} not orthogonal")
            continue
        if not raised and s <= 0:
            failures.append(f"top of string {w} along {nu} not positive")
        if not lowered and s >= 0:
            failures.append(f"bottom of string {w} along {nu} not negative")
        if any(w):
            if raised and not _acts(trsys, w, nu):
                failures.append(f"no raising root sum at {w} along {nu}")
            if lowered and not _acts(trsys, w, minus_nu):
                failures.append(f"no lowering root sum at {w} along {nu}")
    return line[0], line[-1], failures


# -- the form and root generation -------------------------------------------


def form(rs, v, w):
    """Symmetrized Cartan form of two coefficient vectors on ``rs.gram``.

    Exact: integer for integer vectors, Fraction otherwise.
    """
    total = 0
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        row = rs.gram[i]
        acc = 0
        for j, wj in enumerate(w):
            if wj != 0:
                acc += row[j] * wj
        total += vi * acc
    return total


def cartan_of(rs, vectors):
    """Cartan-type entries 2(x,y)/(y,y) of integer vectors, by dense dot
    products on ``rs.gram``: G y for every y, then x . G y for every pair."""
    images = [[sum(map(mul, row, y)) for row in rs.gram] for y in vectors]
    pairs = [[sum(map(mul, x, gy)) for gy in images] for x in vectors]
    for a, b in product(range(len(vectors)), repeat=2):
        if not pairs[b][b] or 2 * pairs[a][b] % pairs[b][b]:
            raise InvalidCartan(
                f"2(x,y)/(y,y) is not an integer for {vectors[a]}, {vectors[b]}")
    return tuple(tuple(2 * f // pairs[b][b] for b, f in enumerate(row)) for row in pairs)


def symmetrizers(cartan):
    """Minimal positive integers d with a[i][j]*d[j] == a[j][i]*d[i], by
    propagating the ratios d_j / d_i as fractions."""
    n = len(cartan)
    vals = [None] * n
    vals[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i == j or cartan[i][j] == 0:
                continue
            want = vals[i] * Fraction(cartan[j][i], cartan[i][j])  # d_j / d_i
            if vals[j] is None:
                vals[j] = want
                queue.append(j)
            elif vals[j] != want:
                raise InvalidCartan("matrix is not symmetrizable")
    if any(v is None for v in vals):
        raise InvalidCartan("matrix is decomposable")
    denom_lcm = 1
    for v in vals:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


class Generated(NamedTuple):
    positives: tuple
    d: tuple


def generate(cartan):
    """The positive roots and symmetrizers of a Cartan matrix by
    breadth-first string walks.

    A positive root phi extends by alpha_i when p - <phi, alpha_i^vee> is
    positive, p the number of steps down the alpha_i string that are
    already known roots.  Raises what ``leviroots.rootsys.generate``
    raises, with the same messages.
    """
    cartan = _validate_cartan(cartan)
    d = symmetrizers(cartan)
    n = len(cartan)
    bound = _max_positive_count(n)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simples)
    level = list(simples)
    positives = list(simples)
    height = 1
    while level:
        height += 1
        if height > 2 * bound:
            raise NotFiniteType("root-string closure did not terminate")
        nxt = set()
        for phi in level:
            for i in range(n):
                c = sum(phi[j] * cartan[j][i] for j in range(n) if phi[j])
                p = 0
                cur = list(phi)
                while True:
                    cur[i] -= 1
                    if cur[i] < 0 or tuple(cur) not in known:
                        break
                    p += 1
                if p - c >= 1:
                    up = list(phi)
                    up[i] += 1
                    nxt.add(tuple(up))
        fresh = [r for r in nxt if r not in known]
        known.update(fresh)
        positives.extend(fresh)
        if len(positives) > bound:
            raise NotFiniteType(
                f"closure produced more than {bound} positive roots at rank {n}"
            )
        level = fresh
    positives.sort(key=lambda r: (sum(r), r))
    if any(c <= 0 for c in positives[-1]):
        raise NotFiniteType("highest root has a zero coefficient; matrix is decomposable")
    if len(positives) > 1 and sum(positives[-2]) == sum(positives[-1]):
        raise NotFiniteType("highest root is not unique; matrix is not irreducible")
    return Generated(tuple(positives), d)
