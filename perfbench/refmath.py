"""Seeded input generation and independent reference arithmetic.

References work on plain 4-tuples (w, x, y, z) and never call the library:
evaluation raises explicit powers instead of running Horner, products
convolve coefficient lists directly, and derivatives are central
differences of the power-sum evaluation.  Agreement with the library is
therefore evidence, not a tautology.
"""

import math

EPS = 2.0 ** -52


def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def qsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def qscale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qabs(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])


ZERO = (0.0, 0.0, 0.0, 0.0)
ONE = (1.0, 0.0, 0.0, 0.0)


def embed(c, unit):
    """Re(c) + Im(c)*unit as a tuple."""
    return (c.real, c.imag * unit[1], c.imag * unit[2], c.imag * unit[3])


# -- seeded inputs ------------------------------------------------------

def rand_quat(rng, scale=1.0):
    return tuple(rng.gauss(0.0, scale) for _ in range(4))


def rand_unit(rng):
    """A uniformly random imaginary unit."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 0.1:
            return (0.0, v[0] / n, v[1] / n, v[2] / n)


def rand_poly(rng, degree, decay=1.0):
    """Gaussian coefficients, the n-th scaled by decay**n."""
    return [rand_quat(rng, decay ** n) for n in range(degree + 1)]


def sphere_point(x0, y0, unit):
    return (x0, y0 * unit[1], y0 * unit[2], y0 * unit[3])


# -- reference algebra --------------------------------------------------

def ref_eval(coeffs, q):
    """sum q^n a_n with explicit powers."""
    total, power = ZERO, ONE
    for c in coeffs:
        total = qadd(total, qmul(power, c))
        power = qmul(power, q)
    return total


def ref_star(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for n, an in enumerate(a):
        for m, bm in enumerate(b):
            out[n + m] = qadd(out[n + m], qmul(an, bm))
    return out


def ref_sphere_quadratic(x0, y0):
    return [(x0 * x0 + y0 * y0, 0.0, 0.0, 0.0), (-2.0 * x0, 0.0, 0.0, 0.0),
            ONE]


def ref_eval_expansion(coeffs, x0, y0, base, q):
    """sum_n [(q-x0)^2+y0^2]^n (A_2n + (q-base) A_2n+1), term by term.

    Returns the sum and the sum of the term moduli, which scales its
    rounding error."""
    shifted = qsub(q, (x0, 0.0, 0.0, 0.0))
    quad = qadd(qmul(shifted, shifted), (y0 * y0, 0.0, 0.0, 0.0))
    corr = qsub(q, base)
    total, power, size = ZERO, ONE, 0.0
    for n in range(0, len(coeffs), 2):
        term = qmul(power, coeffs[n])
        size += qabs(term)
        if n + 1 < len(coeffs):
            odd = qmul(power, qmul(corr, coeffs[n + 1]))
            size += qabs(odd)
            term = qadd(term, odd)
        total = qadd(total, term)
        power = qmul(power, quad)
    return total, size


def scale_sum(coeffs, r, k=0):
    """sum n(n-1)...(n-k+1) |a_n| r^(n-k): bounds the k-th derivative of
    sum q^n a_n on the ball |q| <= r."""
    total = 0.0
    for n, c in enumerate(coeffs):
        if n < k:
            continue
        falling = 1.0
        for m in range(k):
            falling *= n - m
        total += falling * qabs(c) * r ** (n - k)
    return total


def roundoff_tol(coeffs, r):
    """Bound on the rounding error of any evaluation-order of the sum,
    with a safety factor of 8."""
    return 8.0 * (len(coeffs) + 4) * EPS * scale_sum(coeffs, max(r, 1.0))


def fd_directional(coeffs, q0, v, step):
    plus = ref_eval(coeffs, qadd(q0, qscale(v, step)))
    minus = ref_eval(coeffs, qsub(q0, qscale(v, step)))
    return qscale(qsub(plus, minus), 1.0 / (2.0 * step))


def fd_error_model(coeffs, q0, step):
    """Central-difference error bound: step^2/6 * M3 truncation plus
    roundoff/step, each doubled; M_k bound the k-th derivative on the ball
    of radius |q0| + step."""
    r = qabs(q0) + step
    trunc = step * step / 6.0 * scale_sum(coeffs, r, 3)
    rounding = roundoff_tol(coeffs, r) / step
    closed_form = roundoff_tol(coeffs, r) * (len(coeffs) + 1)
    return 2.0 * (trunc + rounding + closed_form)


def close(a, b, tol):
    return qabs(qsub(a, b)) <= tol


def coeffs_close(a, b, tol):
    """Coefficientwise agreement, treating missing entries as zero."""
    n = max(len(a), len(b))
    a = list(a) + [ZERO] * (n - len(a))
    b = list(b) + [ZERO] * (n - len(b))
    return all(close(x, y, tol) for x, y in zip(a, b))


class Outputs:
    """The first output per input key, kept for checking after the run.

    Later outputs for the same key (the same input in a later round) are
    compared with the first as they arrive, outside the request timing:
    the library is deterministic, so any difference is a failure.  Memory
    therefore does not grow with the length of the run.
    """

    def __init__(self):
        self.first = {}
        self.count = {}
        self.differing = {}

    def add(self, key, output, weight=1):
        """Record an output that stands for `weight` requests."""
        if key not in self.first:
            self.first[key] = output
        elif output != self.first[key]:
            self.differing[key] = self.differing.get(key, 0) + weight
        self.count[key] = self.count.get(key, 0) + weight

    def failed(self, check):
        """Failed requests, with check(key, output) judging first outputs."""
        total = 0
        for key, output in self.first.items():
            try:
                good = check(key, output)
            except Exception:   # a malformed output that the check trips on
                good = False
            total += self.differing.get(key, 0) if good else self.count[key]
        return total
