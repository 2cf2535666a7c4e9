"""High-precision reference routes for the Gaussian quantities, in stdlib decimal.

Each route takes the float parameters as exact decimals and works in 60
significant digits (200 for the error bounds, whose powers reach 1e-1500),
so its rounding is far below any float result it checks.  The formulas are
the textbook ones, not the package's: powers are exp(s ln x), the two-mode
determinant is (x y - z^2)^2 of the summed blocks, and the recovery takes
the symplectic spectrum of the evolved blocks directly.  Every test that
needs a decimal value imports it from here.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

PREC = 60
HALF = Decimal("0.5")


def _squeeze(r: Decimal) -> tuple[Decimal, Decimal]:
    """(cosh r, sinh r)."""
    ex = r.exp()
    return (ex + 1 / ex) / 2, (ex - 1 / ex) / 2


def _power(x: Decimal, s: Decimal) -> Decimal:
    return (s * x.ln()).exp() if x else Decimal(0)


def _g_lambda(n: float, s: Decimal) -> tuple[Decimal, Decimal]:
    """(G_s(n), Lambda_s(n)) with G_s(x) = 1 / ((x + 1)^s - x^s) and Lambda_s(x) = x^s G_s(x)."""
    x = Decimal(n)
    xs = _power(x, s)
    g = 1 / (_power(x + 1, s) - xs)
    return g, xs * g


def _sqrt_det_single(pa, pb, wa: Decimal, wb: Decimal) -> Decimal:
    """sqrt(det) of the summed one-mode matrices w diag(e^2r, e^-2r)."""
    ea, eb = ((2 * Decimal(p.r)).exp() for p in (pa, pb))
    return ((wa * ea + wb * eb) * (wa / ea + wb / eb)).sqrt()


def _sqrt_det_two(pa, pb, wa: tuple, wb: tuple) -> Decimal:
    """sqrt(det) = x y - z^2 of the summed blocks [[x I2, z Z], [z Z, y I2]] of two two-mode matrices."""

    def blocks(p, w1, w2):
        c, s = _squeeze(Decimal(p.r))
        return w1 * c * c + w2 * s * s, w1 * s * s + w2 * c * c, (w1 + w2) * c * s

    (xa, ya, za), (xb, yb, zb) = blocks(pa, *wa), blocks(pb, *wb)
    x, y, z = xa + xb, ya + yb, za + zb
    return x * y - z * z


def q_s_single(pa, pb, s: float) -> float:
    """Q_s = G_s(n_a) G_(1-s)(n_b) / sqrt(det Sigma_s) of two one-mode states."""
    with localcontext() as ctx:
        ctx.prec = PREC
        s = Decimal(s)
        ga, la = _g_lambda(pa.n_t, s)
        gb, lb = _g_lambda(pb.n_t, 1 - s)
        return float(ga * gb / _sqrt_det_single(pa, pb, la + HALF, lb + HALF))


def q_s_two(pa, pb, s: float) -> float:
    """Q_s = Pi_s / sqrt(det Sigma_s) of two two-mode states."""
    with localcontext() as ctx:
        ctx.prec = PREC
        s = Decimal(s)
        (ga1, la1), (ga2, la2) = _g_lambda(pa.n_t1, s), _g_lambda(pa.n_t2, s)
        (gb1, lb1), (gb2, lb2) = _g_lambda(pb.n_t1, 1 - s), _g_lambda(pb.n_t2, 1 - s)
        det = _sqrt_det_two(pa, pb, (la1 + HALF, la2 + HALF), (lb1 + HALF, lb2 + HALF))
        return float(ga1 * ga2 * gb1 * gb2 / det)


def overlap_single(pa, pb) -> float:
    """Tr[rho_a rho_b] = 1 / sqrt(det(sigma_a + sigma_b)) of two one-mode states."""
    with localcontext() as ctx:
        ctx.prec = PREC
        wa, wb = (Decimal(p.n_t) + HALF for p in (pa, pb))
        return float(1 / _sqrt_det_single(pa, pb, wa, wb))


def overlap_two(pa, pb) -> float:
    """Tr[rho_a rho_b] = 1 / sqrt(det(sigma_a + sigma_b)) of two two-mode states."""
    with localcontext() as ctx:
        ctx.prec = PREC
        wa, wb = ((Decimal(p.n_t1) + HALF, Decimal(p.n_t2) + HALF) for p in (pa, pb))
        return float(1 / _sqrt_det_two(pa, pb, wa, wb))


def recovery_two(p, eta: float) -> tuple[float, float, float]:
    """(r', n1', n2') of a two-mode state after loss eta on its first mode."""
    with localcontext() as ctx:
        ctx.prec = PREC
        r, n1, n2, e = (Decimal(x) for x in (p.r, p.n_t1, p.n_t2, eta))
        c, s = _squeeze(r)
        a = e * (c * c + s * s + 2 * n1 * c * c + 2 * n2 * s * s) + 1 - e
        b = c * c + s * s + 2 * n1 * s * s + 2 * n2 * c * c
        cc = e.sqrt() * (1 + n1 + n2) * 2 * s * c
        u = ((a + b) ** 2 / 4 - cc * cc).sqrt()
        x = cc / u
        return (
            float((x + (x * x + 1).sqrt()).ln() / 2),
            float((u - 1) / 2 + (a - b) / 4),
            float((u - 1) / 2 - (a - b) / 4),
        )


def _entropy(x: Decimal) -> Decimal:
    """h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2), with 0 ln 0 = 0."""
    lo = x - HALF
    return (x + HALF) * (x + HALF).ln() - (lo * lo.ln() if lo > 0 else 0)


def correlations(p) -> tuple[float, float, float, float]:
    """(E, D, I, the sum of the five entropies) of a two-mode squeezed thermal state, in nats.

    With nu_i = n_ti + 1/2 the symplectic eigenvalues and a, b, c the halves
    of the block entries (a = nu1 cosh^2 r + nu2 sinh^2 r, b the same with
    nu1 and nu2 swapped, c = (nu1 + nu2) cosh r sinh r):
    E = max(0, -ln 2 d~-) with d~- = nu1 nu2 / d~+ and d~+ = (a + b)/2 +
    sqrt(((a - b)/2)^2 + c^2); D = h(b) - h(nu2) + h(w) - h(nu1) with w =
    a - 2 c^2 / (1 + 2 b) (Adesso & Datta, PRL 105, 030501, 2010, measuring
    mode 2); I = (h(a) + h(b) - h(nu1) - h(nu2)) / 2, the halved convention.
    The entropy sum h(a) + h(b) + h(nu1) + h(nu2) + h(w) scales a bound.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        nu1, nu2 = Decimal(p.n_t1) + HALF, Decimal(p.n_t2) + HALF
        ch, sh = _squeeze(Decimal(p.r))
        a, b, c = nu1 * ch * ch + nu2 * sh * sh, nu1 * sh * sh + nu2 * ch * ch, (nu1 + nu2) * ch * sh
        d_plus = (a + b) / 2 + (((a - b) / 2) ** 2 + c * c).sqrt()
        e = max(Decimal(0), -(2 * nu1 * nu2 / d_plus).ln())
        h_a, h_b, h_1, h_2 = (_entropy(x) for x in (a, b, nu1, nu2))
        h_w = _entropy(a - 2 * c * c / (1 + 2 * b))
        d = h_b - h_2 + h_w - h_1
        return float(e), float(d), float((h_a + h_b - h_1 - h_2) / 2), float(h_a + h_b + h_1 + h_2 + h_w)


def pe_lower(f: float, m: int) -> float:
    """The fidelity lower bound (1 - sqrt(1 - F^M)) / 2 on the M-copy error."""
    with localcontext() as ctx:
        ctx.prec = 200
        return float((1 - (1 - Decimal(f) ** m).sqrt()) / 2)


def pe_upper(q: float, m: int) -> float:
    """The Chernoff upper bound Q^M / 2 on the M-copy error."""
    with localcontext() as ctx:
        ctx.prec = 200
        return float(Decimal(q) ** m / 2)


def pe_fidelity_upper(f: float, m: int) -> float:
    """The fidelity upper bound sqrt(F^M) / 2 on the M-copy error."""
    with localcontext() as ctx:
        ctx.prec = 200
        return float((Decimal(f) ** m).sqrt() / 2)


def threshold_root(eta: float) -> float:
    """N_th: the root of psi(N) = b^4 N^3 + 8 b^3 N^2 + 24 b^2 N + 16 (2 b - a), or 0 where psi(0) >= 0.

    a = 1 - eta^2 and b = 1 - sqrt(eta), as printed.  psi is increasing and
    convex on N >= 0, so Newton from the upper bound -psi(0) / psi'(0)
    lowers N onto the root; it stops when a step no longer lowers N.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        e = Decimal(eta)
        b = 1 - e.sqrt()
        c3, c2, c1, c0 = b**4, 8 * b**3, 24 * b * b, 16 * (2 * b - (1 - e * e))
        if c0 >= 0:
            return 0.0
        n = -c0 / c1
        while (lower := n - (((c3 * n + c2) * n + c1) * n + c0) / ((3 * c3 * n + 2 * c2) * n + c1)) < n:
            n = lower
        return float(n)
