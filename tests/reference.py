"""Reference oracles for the t-root laws, one pair or one string at a time.

Each oracle reads only the public data of a t-root system: the spaces
(``trsys.spaces``), the keys (``trsys.keys``), the exact pairing
(``trsys.inner``) and the roots (``trsys.rs.roots``).  They work on root
tuples and keys directly, and share no code with the sweep in
``leviroots.checks``: no sum table, no key encoding, no pairing table.
Their failure texts are the sweep's, so a reference report can be matched
against a sweep report.
"""


def _shift(key, step, j=1):
    """key + j * step, entry by entry."""
    return tuple(a + j * b for a, b in zip(key, step))


def _troot(trsys, key):
    key = tuple(key)
    if key not in trsys.spaces:
        raise ValueError(f"{key} is not a t-root here")
    return key


def _acts(trsys, w, e):
    """Whether some root of the space at w adds to some root of the space
    at e within Delta u {0}."""
    roots = trsys.rs.roots
    return any(not any(s) or s in roots
               for phi in trsys.spaces[w].roots for psi in trsys.spaces[e].roots
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
    image = {s for phi in trsys.spaces[mu].roots for psi in trsys.spaces[nu].roots
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
    s = trsys.inner(mu, nu)
    if mu == nu:
        return [] if s > 0 else [f"({mu},{nu}) is not positive"]
    troots = set(trsys.keys)
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
    weights = {zero, *trsys.keys}
    # at a nonzero entry of nu, |j| <= |j * nu| = |weight - gamma| <= bound
    bound = 2 * max(max(map(abs, k)) for k in weights)
    line = [j for j in range(-bound, bound + 1) if _shift(gamma, nu, j) in weights]
    minus_nu = tuple(-c for c in nu)
    failures = []
    for j in line:
        w = _shift(gamma, nu, j)
        raised, lowered = j + 1 in line, j - 1 in line
        s = trsys.inner(w, nu)
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
