"""Independent oracles and samplers for the test suite.

The oracles deliberately avoid the library's code paths: multiplication
goes through a structure-constant table instead of the hand-expanded
product, evaluation raises powers by repeated multiplication instead of
Horner, and products convolve with the table-based multiply.  Agreement
between library and oracle is then meaningful evidence.
"""

import cmath
import math
import random
from fractions import Fraction
from operator import add, mul

import mpmath

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      Sphere, embed_complex, orthogonal_unit, slice_decompose,
                      split_complex)
from slicereg.tolerances import EPS_MULT, EPS_ROOT, FD_STEP

# Structure constants: BASIS_PRODUCT[a][b] = (sign, index) for e_a * e_b
# with basis order (1, i, j, k).
BASIS_PRODUCT = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def oracle_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Bilinear expansion of the product over the multiplication table."""
    out = [0.0, 0.0, 0.0, 0.0]
    ac, bc = a.to_list(), b.to_list()
    for m in range(4):
        if ac[m] == 0.0:
            continue
        for n in range(4):
            sign, idx = BASIS_PRODUCT[m][n]
            out[idx] += sign * ac[m] * bc[n]
    return Quaternion(*out)


def oracle_power(q: Quaternion, n: int) -> Quaternion:
    out = Quaternion(1.0, 0.0, 0.0, 0.0)
    for _ in range(n):
        out = oracle_mul(out, q)
    return out


def oracle_eval(coeffs, q: Quaternion) -> Quaternion:
    """sum q^n a_n with explicit powers, no Horner."""
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for n, c in enumerate(coeffs):
        total = total + oracle_mul(oracle_power(q, n), c)
    return total


def oracle_convolution(a, b) -> list:
    """Coefficient convolution c_n = sum a_k b_{n-k} via the table."""
    if not a or not b:
        return []
    out = [Quaternion(0.0, 0.0, 0.0, 0.0)] * (len(a) + len(b) - 1)
    for n, an in enumerate(a):
        for m, bm in enumerate(b):
            out[n + m] = out[n + m] + oracle_mul(an, bm)
    return out


def coordinate_extract(q: Quaternion) -> tuple[float, float, float, float]:
    """Recover the four real coordinates of q by quaternion arithmetic only.

    Each coordinate is an algebraic combination of q conjugated by the
    basis units; the combinations are evaluated literally rather than read
    off the components, so this doubles as a self-test of the product.
    """
    iqi = UNIT_I * q * UNIT_I
    jqj = UNIT_J * q * UNIT_J
    kqk = UNIT_K * q * UNIT_K
    x0 = (q - iqi - jqj - kqk) * 0.25
    x1 = (UNIT_I * 4.0).inverse() * (q - iqi + jqj + kqk)
    x2 = (UNIT_J * 4.0).inverse() * (q + iqi - jqj + kqk)
    x3 = (UNIT_K * 4.0).inverse() * (q + iqi + jqj - kqk)
    return x0.w, x1.w, x2.w, x3.w


def quat_close(a: Quaternion, b: Quaternion, tol: float) -> bool:
    return abs(a - b) <= tol


def coefficient(f: SlicePoly, n: int) -> Quaternion:
    """The coefficient a_n of f, zero past its degree."""
    return f.coeffs[n] if n < len(f.coeffs) else Quaternion(0, 0, 0, 0)


def poly_close(f: SlicePoly, g: SlicePoly, tol: float) -> bool:
    top = max(len(f.coeffs), len(g.coeffs))
    return all(abs(coefficient(f, n) - coefficient(g, n)) <= tol
               for n in range(top))


def random_quaternion(rng: random.Random, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def random_unit(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(0.0, rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1))
        n = q.im_norm()
        if 0.1 < n:
            return q / n


def random_poly(rng: random.Random, max_degree: int,
                scale: float = 1.0) -> SlicePoly:
    degree = rng.randint(0, max_degree)
    return SlicePoly([random_quaternion(rng, scale)
                      for _ in range(degree + 1)])


def random_sphere(rng: random.Random, x_max: float = 2.0,
                  y_max: float = 2.0) -> Sphere:
    return Sphere(rng.uniform(-x_max, x_max), rng.uniform(0.0, y_max))


def sphere_point(rng: random.Random, sphere: Sphere) -> Quaternion:
    unit = random_unit(rng)
    return Quaternion(sphere.x0, unit.x * sphere.y0, unit.y * sphere.y0,
                      unit.z * sphere.y0)


def reference_quadratic_div(f: SlicePoly,
                            sphere: Sphere) -> tuple[SlicePoly, SlicePoly]:
    """`SlicePoly.quadratic_div` as a long-division loop over Quaternion
    values: the library's in-place float kernel does each float operation
    of this loop in the same order, so the two agree bit for bit."""
    two_x0 = 2.0 * sphere.x0
    const = sphere.x0 * sphere.x0 + sphere.y0 * sphere.y0
    work = list(f.coeffs)
    d = len(work) - 1
    if d < 2:
        return SlicePoly(), f
    quot = [Quaternion(0.0, 0.0, 0.0, 0.0)] * (d - 1)
    for n in range(d, 1, -1):
        c = work[n]
        quot[n - 2] = c
        work[n - 1] = work[n - 1] + c * two_x0
        work[n - 2] = work[n - 2] - c * const
    return SlicePoly(quot), SlicePoly(work[:2])


def reference_divide(parts: list, lo: int, top: int, sphere: Sphere) -> None:
    """The division of one level of `polynomial._sphere_levels`, entries
    lo..top of the component lists by (q - x0)^2 + y0^2, as the plain
    recurrence it replaced, one component after another, reading and
    storing every entry in the lists: the library steps all four
    components in one loop, carrying each one's two live entries in
    locals, and does each component's float operations in the same order,
    so the two agree bit for bit."""
    two_x0 = 2.0 * sphere.x0
    const = sphere.x0 * sphere.x0 + sphere.y0 * sphere.y0
    for v in parts:
        for n in range(top, lo + 1, -1):
            c = v[n]
            v[n - 1] = v[n - 1] + c * two_x0
            v[n - 2] = v[n - 2] - c * const


def reference_star(f: SlicePoly, g: SlicePoly) -> SlicePoly:
    """`f * g` as a double loop over Quaternion products, each added to
    its output coefficient in order of k: the library splits every
    coefficient into complex halves instead, so the two agree to
    roundoff, and bit for bit on integer data."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return SlicePoly()
    out = [Quaternion(0.0, 0.0, 0.0, 0.0)] * (len(a) + len(b) - 1)
    for n, an in enumerate(a):
        for m, bm in enumerate(b):
            out[n + m] = out[n + m] + an * bm
    return SlicePoly(out)


def plain_star(f: SlicePoly, g: SlicePoly) -> SlicePoly:
    """`f * g` by the complex-halves formula with every window cut
    exactly: c_n sums a_k against b_{n-k} for k = lo..hi-1 over the
    slices a[lo:hi] and the matching span of b reversed, all six cut per
    coefficient.  The library cuts one operand and passes the other
    whole; both visit the same k in ascending order and group each c_n's
    four sums alike, so the two agree bit for bit."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return SlicePoly()
    a1 = [complex(c.w, c.x) for c in a]
    a2 = [complex(c.y, c.z) for c in a]
    b1 = [complex(c.w, c.x) for c in reversed(b)]
    b2 = [complex(c.y, c.z) for c in reversed(b)]
    b1c = [v.conjugate() for v in b1]
    b2c = [v.conjugate() for v in b2]
    la, lb = len(a), len(b)
    out = []
    for n in range(la + lb - 1):
        lo, hi = max(0, n - lb + 1), min(n + 1, la)
        s, e = lo + lb - 1 - n, hi + lb - 1 - n
        c1 = (sum(map(mul, a1[lo:hi], b1[s:e]))
              - sum(map(mul, a2[lo:hi], b2c[s:e])))
        c2 = (sum(map(mul, a1[lo:hi], b2[s:e]))
              + sum(map(mul, a2[lo:hi], b1c[s:e])))
        out.append(Quaternion(c1.real, c1.imag, c2.real, c2.imag))
    return SlicePoly(out)


def reference_horner(f: SlicePoly, q: Quaternion) -> Quaternion:
    """`f(q)` as left-nested Horner over Quaternion values,
    a_0 + q*(a_1 + q*(a_2 + ...)): the library runs each step on complex
    halves instead, so the two agree to roundoff, and bit for bit on
    integer data."""
    if not f.coeffs:
        return Quaternion(0.0, 0.0, 0.0, 0.0)
    acc = f.coeffs[-1]
    for c in reversed(f.coeffs[:-1]):
        acc = c + q * acc
    return acc


def reference_eval_expansion(expansion, q: Quaternion,
                             up_to: int | None = None,
                             form: str = "base") -> Quaternion:
    """`eval_expansion` as the power sum over Quaternion values it
    replaced: sum_n Q^n A_2n + Q^n (correction A_2n+1), with Q^n raised
    by one product per pair.  The library runs Horner in Q on complex
    halves instead, so the two agree to roundoff.  `form="pair"` sums
    the base-point-free family, with the bare-q correction, which the
    library keeps as data only."""
    if form == "base":
        coeffs, correction = expansion.coeffs, q - expansion.base_point
    else:
        coeffs, correction = expansion.sphere_coeffs, q
    last = len(coeffs) - 1 if up_to is None else up_to
    sphere = Sphere.through(expansion.base_point)
    shifted = q - sphere.x0
    quad = shifted * shifted + sphere.y0 ** 2
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    power = Quaternion(1.0, 0.0, 0.0, 0.0)
    for n in range(0, last + 1, 2):
        total = total + power * coeffs[n]
        if n + 1 <= last:
            total = total + power * (correction * coeffs[n + 1])
        power = power * quad
    return total


def reference_expansion(f: SlicePoly, q0: Quaternion,
                        order: int) -> tuple[tuple, tuple]:
    """`expand_at(f, q0, order)`'s two families (base, base-point-free)
    by repeated `reference_quadratic_div` on a fresh SlicePoly per level."""
    sphere = Sphere(q0.w, q0.im_norm())
    base, free = [], []
    g = f
    for _ in range(order // 2 + 1):
        g, rest = reference_quadratic_div(g, sphere)
        even, odd = coefficient(rest, 0), coefficient(rest, 1)
        base += (even + q0 * odd, odd)
        free += (even, odd)
    return tuple(base[:order + 1]), tuple(free[:order + 1])


def division_case(rng: random.Random) -> tuple[SlicePoly, Quaternion, int]:
    """A polynomial, a sphere point and an expansion order for bit-level
    comparisons of the division: degree 0..48, scale 1e-300..1e150,
    centres up to 400, radii 0, 1e-9, 1 or random, leading coefficients
    1e-12.5..1e-10.5 times the others, -0.0 components, polynomials even
    about the origin, and orders past 2*degree."""
    degree = round(48 * rng.random() ** 2)
    scale = 10.0 ** rng.uniform(-300, 150)
    coeffs = [[rng.choice((rng.uniform(-scale, scale), -0.0, 0.0))
               if rng.random() < 0.15 else rng.uniform(-scale, scale)
               for _ in range(4)] for _ in range(degree + 1)]
    if rng.random() < 0.3:
        small = 10.0 ** rng.uniform(-12.5, -10.5)
        coeffs[-1] = [v * small for v in coeffs[-1]]
    x0 = rng.choice((0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-400, 400)))
    if rng.random() < 0.1:
        # Even in q about x0 = 0: every remainder's c is a signed zero,
        # which the level reads as ZERO (+0.0).
        for c in coeffs[1::2]:
            c[:] = (rng.choice((0.0, -0.0)) for _ in range(4))
        x0 = rng.choice((0.0, -0.0))
    y0 = rng.choice((0.0, 1e-9, 1.0, rng.uniform(0, 3)))
    q0 = Sphere(x0, y0).point(random_unit(rng))
    order = (2 * degree + rng.randint(1, 4) if rng.random() < 0.2
             else rng.randint(0, degree))
    return SlicePoly(Quaternion(*c) for c in coeffs), q0, order


def threshold_gap_poly() -> tuple[SlicePoly, SlicePoly, Sphere]:
    """f = Q*(Q*h + a*i + q*a*j) with Q the quadratic of Sphere(1, 0.05)
    and h a smooth bump, plus the cofactor f/Q and the sphere.

    Q acts on h's coefficients as a second difference, so max |f| is ten
    times smaller than max |f/Q|, and a = 8.8e-13 sits between the two
    zero thresholds: at f's, 2m = 2 and the level a*i + q*a*j does not
    vanish; its root k is off the sphere.
    """
    sphere = Sphere(1.0, 0.05)
    quad = SlicePoly.sphere_quadratic(sphere)
    bump = SlicePoly([math.exp(-((k - 30) / 8) ** 2) for k in range(61)])
    a = 8.8e-13
    cofactor = quad * bump + SlicePoly([Quaternion(0, a, 0, 0),
                                        Quaternion(0, 0, a, 0)])
    return quad * cofactor, cofactor, sphere


def binomial_taylor_coeffs(f: SlicePoly, x0: float) -> list:
    """Taylor coefficients of f at a real center, by the binomial theorem
    (valid because a real center commutes with everything)."""
    d = len(f.coeffs) - 1
    out = [Quaternion(0.0, 0.0, 0.0, 0.0)] * (d + 1)
    for n, a in enumerate(f.coeffs):
        for k in range(n + 1):
            out[k] = out[k] + a * (math.comb(n, k) * x0 ** (n - k))
    return out


def two_point_sphere_coeffs(f: SlicePoly, sphere: Sphere, q1: Quaternion,
                            q2: Quaternion, order: int) -> list:
    """Base-point-free coefficients C_0..C_order from values at two
    distinct sphere points.

    On the sphere each cofactor g restricts to b + q*c, and with
    |q1| = |q2| the values v_k = g(q_k) give c = (q2-q1)^-1 (v2 - v1) and
    b = (q2-q1)^-1 (conj(q1) v1 - conj(q2) v2).  The next cofactor is the
    quotient of g by the real quadratic q^2 - 2 x0 q + x0^2 + y0^2, taken
    by long division; real coefficients commute, so the division is the
    scalar recurrence.
    """
    d = (q2 - q1).inverse()
    q1c, q2c = q1.conj(), q2.conj()
    s1 = -2.0 * sphere.x0
    s0 = sphere.x0 * sphere.x0 + sphere.y0 * sphere.y0
    g = list(f.coeffs)
    out = []
    for _ in range(order // 2 + 1):
        v1, v2 = oracle_eval(g, q1), oracle_eval(g, q2)
        out.append(oracle_mul(d, oracle_mul(q1c, v1) - oracle_mul(q2c, v2)))
        out.append(oracle_mul(d, v2 - v1))
        # h[j] = 0 above the quotient's degree, len(g) - 3
        h = [Quaternion(0.0, 0.0, 0.0, 0.0)] * len(g)
        for k in range(len(g) - 1, 1, -1):
            h[k - 2] = g[k] - h[k - 1] * s1 - h[k] * s0
        g = h[:max(len(g) - 2, 0)]
    return out[:order + 1]


def finite_difference_directional(f: SlicePoly, q0: Quaternion, v: Quaternion,
                                  step: float = FD_STEP) -> Quaternion:
    """Central finite-difference derivative along v: differences of
    values, independent of the closed-form derivative formulas."""
    return (f(q0 + v * step) - f(q0 - v * step)) / (2.0 * step)


def finite_difference_holo(f: SlicePoly, q0: Quaternion) -> tuple:
    """Holomorphic block of the complex Jacobian at q0 by central
    differences along 1, I, J, IJ, the independent route."""
    _, _, unit_i = slice_decompose(q0)
    unit_j = orthogonal_unit(unit_i)
    partials = [split_complex(finite_difference_directional(f, q0, e),
                              unit_i, unit_j)
                for e in (ONE, unit_i, unit_j, unit_i * unit_j)]
    return tuple(
        (0.5 * (partials[0][comp] - 1j * partials[1][comp]),
         0.5 * (partials[2][comp] - 1j * partials[3][comp]))
        for comp in (0, 1))


def tracked_boundary(x0: float, y0: float, radius: float,
                     count: int) -> list:
    """(theta, z, loop) boundary samples of U(x0 + y0*S, R) by following
    the argument of w = R^2 e^(i theta) - y0^2 continuously.

    The argument is tracked on a grid 16 times finer than the output, so
    each step stays well below pi; z - x0 = +-sqrt|w| e^(i arg/2).  At the
    pinch R = y0, w(0) = 0 and the branch enters with argument pi/2
    (w ~ i R^2 theta), and leaving the zero anchors on the principal
    argument.
    """
    half = count // 2
    r2, y2 = radius * radius, y0 * y0
    oversample = 16
    fine = half * oversample
    roots = []
    prev_arg = prev_w = None
    for m in range(fine):
        w = r2 * cmath.exp(1j * (2.0 * math.pi * m / fine)) - y2
        if prev_arg is None:
            arg = cmath.phase(w) if w != 0 else math.pi / 2.0
        elif w == 0:
            arg = prev_arg
        elif prev_w == 0:
            arg = cmath.phase(w)
        else:
            arg = prev_arg + cmath.phase(w / prev_w)
        if m % oversample == 0:
            roots.append(math.sqrt(abs(w)) * cmath.exp(0.5j * arg))
        prev_arg, prev_w = arg, w
    thetas = [2.0 * math.pi * m / half for m in range(half)]
    second = 0 if radius >= y0 else 1
    return ([(t, x0 + r, 0) for t, r in zip(thetas, roots)]
            + [(t, x0 - r, second) for t, r in zip(thetas, roots)])


def _exact(q: Quaternion) -> list:
    return [Fraction(v) for v in q.to_list()]


def _exact_quadratic(q0: Quaternion) -> tuple:
    """(s1, s0) of the sphere through q0, q^2 + s1 q + s0, exactly:
    s1 = -2 x0 and s0 = x0^2 + |Im q0|^2 from q0's components."""
    x0 = Fraction(q0.w)
    y0_sq = sum(Fraction(v) ** 2 for v in (q0.x, q0.y, q0.z))
    return -2 * x0, x0 * x0 + y0_sq


def exact_quadratic_product(g: SlicePoly, q0: Quaternion) -> SlicePoly:
    """[(q - x0)^2 + y0^2] * g for the sphere through q0, with every
    coefficient computed exactly and rounded once."""
    s1, s0 = _exact_quadratic(q0)
    d = len(g.coeffs) + 1
    rows = [_exact(c) for c in g.coeffs] + [[Fraction(0)] * 4] * 2
    out = []
    for n in range(d + 1):
        comps = [s0 * rows[n][m] + (s1 * rows[n - 1][m] if n >= 1 else 0)
                 + (rows[n - 2][m] if n >= 2 else 0) for m in range(4)]
        out.append(Quaternion(*(float(v) for v in comps)))
    return SlicePoly(out)


def ring_sphere_levels(f: SlicePoly, q0: Quaternion, order: int) -> list:
    """C_0..C_order of the sphere through q0 in rational arithmetic, as
    4-tuples of Fractions.

    Long division by q^2 + s1 q + s0, whose coefficients come exactly from
    q0's components: the n-th remainder is C_2n + q C_2n+1, and the
    quotient is divided again.
    """
    s1, s0 = _exact_quadratic(q0)
    g = [_exact(c) for c in f.coeffs]
    out = []
    for _ in range(order // 2 + 1):
        work = [list(c) for c in g]
        quot = [None] * max(len(work) - 2, 0)
        for k in range(len(work) - 1, 1, -1):
            top = work[k]
            quot[k - 2] = top
            for m in range(4):
                work[k - 1][m] -= s1 * top[m]
                work[k - 2][m] -= s0 * top[m]
        rest = work[:2] + [[Fraction(0)] * 4] * (2 - len(work[:2]))
        out += [tuple(c) for c in rest]
        g = quot
    return out[:order + 1]


def exact_sphere_levels(f: SlicePoly, q0: Quaternion, order: int) -> list:
    """`ring_sphere_levels`, each C rounded once at the end."""
    return [Quaternion(*(float(v) for v in c))
            for c in ring_sphere_levels(f, q0, order)]


# Exact ring oracle: quaternions as 4-tuples of Fractions, polynomials as
# lists of them (lowest power first, no trailing zero).  Nothing here
# calls the library's arithmetic, and nothing rounds, so a library result
# that is exact in binary64 must equal the oracle's value bit for bit.

def exact_quaternion(q: Quaternion) -> tuple:
    return tuple(Fraction(v) for v in q.to_list())


def exact_poly(f: SlicePoly) -> list:
    return [exact_quaternion(c) for c in f.coeffs]


def _ring_mul(a: tuple, b: tuple) -> tuple:
    out = [Fraction(0)] * 4
    for m in range(4):
        for n in range(4):
            sign, idx = BASIS_PRODUCT[m][n]
            out[idx] += sign * a[m] * b[n]
    return tuple(out)


def exact_rotation(q: Quaternion, u: Quaternion) -> Quaternion:
    """u q u^-1 in rational arithmetic on the float components, rounded
    once: conjugation by any nonzero u is a ring automorphism and keeps
    |q|, exactly, before that one rounding."""
    eu = exact_quaternion(u)
    norm_sq = sum(v * v for v in eu)
    inverse = (eu[0] / norm_sq, *(-v / norm_sq for v in eu[1:]))
    exact = _ring_mul(_ring_mul(eu, exact_quaternion(q)), inverse)
    return Quaternion(*(float(v) for v in exact))


def _ring_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _ring_trim(coeffs: list) -> list:
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    return coeffs


def ring_star(a: list, b: list) -> list:
    """Exact star product: c_n = sum a_k b_{n-k}."""
    if not a or not b:
        return []
    out = [(Fraction(0),) * 4] * (len(a) + len(b) - 1)
    for n, an in enumerate(a):
        for m, bm in enumerate(b):
            out[n + m] = _ring_add(out[n + m], _ring_mul(an, bm))
    return _ring_trim(out)


def ring_sum(a: list, b: list) -> list:
    zero = (Fraction(0),) * 4
    top = max(len(a), len(b))
    return _ring_trim([_ring_add(a[n] if n < len(a) else zero,
                                 b[n] if n < len(b) else zero)
                       for n in range(top)])


def ring_horner(coeffs: list, q: tuple) -> tuple:
    """Exact value sum q^n a_n = a_0 + q (a_1 + q (a_2 + ...))."""
    acc = (Fraction(0),) * 4
    for c in reversed(coeffs):
        acc = _ring_add(c, _ring_mul(q, acc))
    return acc


def ring_eval_expansion(coeffs, q: Quaternion, sphere: Sphere,
                        base: Quaternion) -> tuple:
    """Exact sum_n Q^n (A_2n + (q - base) A_2n+1), Q = (q - x0)^2 + y0^2,
    of the float coefficients A_n at the float q: Horner in Q in the
    ring, nothing rounded."""
    eq = exact_quaternion(q)
    shifted = (eq[0] - Fraction(sphere.x0), *eq[1:])
    quad = _ring_add(_ring_mul(shifted, shifted),
                     (Fraction(sphere.y0) ** 2, 0, 0, 0))
    correction = _ring_add(eq, tuple(-v for v in exact_quaternion(base)))
    acc = (Fraction(0),) * 4
    for n in reversed(range(0, len(coeffs), 2)):
        term = exact_quaternion(coeffs[n])
        if n + 1 < len(coeffs):
            term = _ring_add(term, _ring_mul(
                correction, exact_quaternion(coeffs[n + 1])))
        acc = _ring_add(term, _ring_mul(quad, acc))
    return acc


def ring_cofactor(coeffs: list, q: tuple) -> list:
    """Exact R in f = f(q) + (q_var - q) * R: R_{d-1} = a_d and
    R_{n-1} = a_n + q R_n, by backward synthetic division."""
    out = []
    acc = (Fraction(0),) * 4
    for c in reversed(coeffs[1:]):
        acc = _ring_add(c, _ring_mul(q, acc))
        out.append(acc)
    return _ring_trim(out[::-1])


def quotient_criterion(f: SlicePoly, sphere: Sphere) -> bool:
    """Whether f has an isolated zero on the sphere, by the quotient
    criterion on the first expansion level C_2n + q C_2n+1 that does not
    vanish: C_2n+1 != 0 and -C_2n+1^(-1) C_2n lies on the sphere.

    The levels are exact (`exact_sphere_levels`), the inverse stands on
    the left of the table product, and the thresholds are the library's
    (EPS_MULT * max |a_n| for a vanishing level, EPS_ROOT on the sphere).
    -c^(-1) b is conjugate, by c, to the root -b c^(-1) of b + q*c, so the
    two lie on the same sphere; without the minus sign the point lies on
    the mirrored sphere -x0 + y0*S instead.
    """
    thr = EPS_MULT * f.max_coeff_norm()
    q0 = Quaternion(sphere.x0, sphere.y0, 0.0, 0.0)
    levels = exact_sphere_levels(f, q0, 2 * len(f.coeffs) + 1)
    for even, odd in zip(levels[::2], levels[1::2]):
        if max(abs(even), abs(odd)) > thr:
            break
    else:
        raise ValueError("all expansion levels vanish")
    if abs(odd) <= thr:
        return False
    point = -oracle_mul(odd.conj() / odd.norm_sq(), even)
    return sphere.contains(point, eps=EPS_ROOT)


# -- contour quadrature sums ------------------------------------------
#
# The discrete sum a contour rule stands for, sum_m k(z_m) w_m f(z_m),
# over the contour's own points and weights at 50 significant digits:
# quaternion products through the structure-constant table, powers of z_m
# by repeated multiplication, no splitting into complex components.

def _mp_mul(a: tuple, b: tuple) -> tuple:
    out = [mpmath.mpf(0)] * 4
    for m in range(4):
        for n in range(4):
            sign, idx = BASIS_PRODUCT[m][n]
            out[idx] += sign * a[m] * b[n]
    return tuple(out)


def _mp_embed(z, unit: Quaternion) -> tuple:
    return (z.real, z.imag * unit.x, z.imag * unit.y, z.imag * unit.z)


def reference_node_sums(f: SlicePoly, contour, kernels) -> list:
    """For each kernel k, a function of an mpmath complex z with values in
    the contour's plane: (sum_m k(z_m) w_m f(z_m) rounded to a Quaternion,
    sum_m |k(z_m) w_m| sum_n |a_n| |z_m|^n as a float)."""
    with mpmath.workdps(50):
        coeffs = [tuple(map(mpmath.mpf, c.to_list())) for c in f.coeffs]
        norms = [mpmath.mpf(abs(c)) for c in f.coeffs]
        nodes = []
        for point, weight in zip(contour.points, contour.weights):
            z = mpmath.mpc(point)
            q = _mp_embed(z, contour.unit)
            power, value = (mpmath.mpf(1), 0, 0, 0), (mpmath.mpf(0),) * 4
            for c in coeffs:
                value = tuple(map(sum, zip(value, _mp_mul(power, c))))
                power = _mp_mul(power, q)
            size = sum(a * abs(z) ** n for n, a in enumerate(norms))
            nodes.append((z, mpmath.mpc(weight), value, size))
        out = []
        for kernel in kernels:
            total, magnitude = (mpmath.mpf(0),) * 4, mpmath.mpf(0)
            for z, weight, value, size in nodes:
                factor = kernel(z) * weight
                term = _mp_mul(_mp_embed(factor, contour.unit), value)
                total = tuple(map(sum, zip(total, term)))
                magnitude += abs(factor) * size
            out.append((Quaternion(*map(float, total)), float(magnitude)))
        return out


def recursive_pairwise_sum(values: list) -> complex:
    """Pairwise sum that splits at the largest power of two below the
    length: the tree that pairing neighbours level by level, an odd
    last value carried up, builds."""
    if len(values) <= 1:
        return values[0] if values else 0j
    half = 1 << ((len(values) - 1).bit_length() - 1)
    return (recursive_pairwise_sum(values[:half])
            + recursive_pairwise_sum(values[half:]))


def reference_pairwise_sum(values: list) -> complex:
    """The contour sums' pairwise loop as it ran with one list pass per
    tree level down to the last value: neighbours paired, an odd last
    value carried up."""
    work = values or [0j]
    while len(work) > 1:
        pairs = iter(work)
        nxt = list(map(add, pairs, pairs))
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def reference_split(q: Quaternion, unit_i: Quaternion,
                    unit_j: Quaternion) -> tuple[complex, complex]:
    """(F, G) of q = F + G*J, forming I*J again at every call."""
    ij = unit_i * unit_j
    c0 = q.x * unit_i.x + q.y * unit_i.y + q.z * unit_i.z
    c2 = q.x * unit_j.x + q.y * unit_j.y + q.z * unit_j.z
    c3 = q.x * ij.x + q.y * ij.y + q.z * ij.z
    return complex(q.w, c0), complex(c2, c3)


def reference_integrate_split(factors: list, f: SlicePoly,
                              contour) -> Quaternion:
    """The contour integrals' moment loop with one `reference_split` per
    coefficient and `reference_pairwise_sum` per moment: 1/(2 pi I) times
    sum_m c_m f(z_m) from the weighted kernel values c_m."""
    scale = 1.0 / (2.0j * math.pi)
    unit = contour.unit
    unit_j = orthogonal_unit(unit)
    sum_f = sum_g = 0j
    terms = factors
    for n, coeff in enumerate(f.coeffs):
        if n:
            terms = list(map(mul, terms, contour.points))
        moment = reference_pairwise_sum(terms)
        alpha, beta = reference_split(coeff, unit, unit_j)
        sum_f += alpha * moment
        sum_g += beta * moment
    return (embed_complex(scale * sum_f, unit)
            + embed_complex(scale * sum_g, unit) * unit_j)
