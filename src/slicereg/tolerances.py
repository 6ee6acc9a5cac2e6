"""Shared numerical tolerances.

The constants here are dimensionless base values.  `guard` forms most
thresholds from them as eps (1 + a + b), with a and b the magnitudes of
the data guarded: relative above unit scale, but the "1 +" makes the
threshold the absolute eps once the data fall below it.  The zero
threshold used by the multiplicity algorithms is deliberately a single
shared value: those algorithms are threshold-sensitive and must agree on
what counts as zero.
"""

# Singularity guard, scaled by (1 + |operand|): inverses, and the
# degenerate sphere test Sphere.is_point (y0 against 1 + |x0|).
EPS_ZERO = 1e-14

# Imaginary-unit test |Re u|, |u|^2 - 1 (absolute), and the common-plane
# test of same_slice_plane (cross product against the product of moduli).
EPS_UNIT = 1e-12

# Boundary classification of lemniscate sets: | |(q-x0)^2 + y0^2| - R^2 |
# scaled by (1 + R^2); boundary samples are good to ~1e-15 relative.  Also
# the figure-eight test |R - y0| <= EPS_BOUNDARY (1 + y0 + R) of shape(),
# which alone refuses a pinched contour (its corner defeats the weights).
EPS_BOUNDARY = 1e-9

# Off-plane distance of a point handed to quadrature in the contour's
# slice plane (a Cauchy point, the base point of a coefficient integral),
# scaled by (1 + |q|); input: ~1e-16.
EPS_IN_PLANE = 1e-9

# Pole-to-node distance, scaled by (1 + |pole|); nearer, 1/(s - pole) has
# at most ~7 correct digits.
EPS_NODE = 1e-9

# Sample points a caller hands in as lying on a sphere (expand_pair's
# pair, representation_eval's points), scaled by (1 + |x0| + y0).  These
# come from outside, e.g. from decimal input written to six or seven
# significant digits, so the test is far looser than EPS_ROOT's on
# computed roots.
EPS_SAMPLE_ON_SPHERE = 1e-6

# | |v| - 1 | of a direction handed to directional_derivative, absolute.
# A direction normalised in binary64 is unit to ~1e-16; the guard refuses
# unnormalised directions rather than directions with roundoff.
EPS_DIRECTION = 1e-9

# Cauchy-estimate margin bound - |A_n| below which verify-cauchy exits 1.
# Absolute, not scaled by the size of f, so the verdict depends on the
# scale of f.  The bound rests on a boundary maximum sampled at finitely
# many nodes, a lower bound on the true maximum, and on a boundary length
# from central differences; nothing shows that the margin absorbs their
# shortfall.
EPS_BOUND_MARGIN = 1e-6

# Coefficient/value zero test in multiplicity algorithms, scaled by
# max |coeff of f|.  Overridable per call and via the CLI.
EPS_MULT = 1e-10

# On-sphere test of a root -b c^(-1) of b + q*c, scaled by (1 + |x0| + y0):
# b and c carry the roundoff of the divisions and of peeled factors.
EPS_ROOT = 1e-10

# Consecutive peeled roots this close to conjugate, scaled by (1 + |p|),
# reveal a missed quadratic factor; each root is good to about EPS_ROOT.
# The peeling refuses such a pair before it keeps the second root, so
# the factors of every MultiplicityReport pass this test.
EPS_CONJ_FACTOR = 1e-9

# Boundary nodes over which coefficient_bound_report samples max |f|.
BOUND_SAMPLES = 4096

# Smallest lemniscate loop whose contour length is known to 1e-3, in
# units of sqrt(samples) (1 + |x0| + y0).  The length is the sum of the
# weight moduli, and the nodes carry an absolute error of about
# u (1 + |x0| + y0), u the unit roundoff.  Against 40-digit sums at the
# same nodes (800 domains: 16 to 4096 samples, R/y0 from 3e-8 to 3, |x0|
# up to 1e3, y0 from 1e-3 to 1e3) the length's relative error stayed
# below 0.30 times sqrt(samples) u (1 + |x0| + y0) / loop, so half of
# that is taken as its bound.  The bound reaches 1e-3 at loop = 500
# sqrt(samples) u (1 + |x0| + y0); coefficient_bound_report refuses a
# smaller loop at BOUND_SAMPLES samples (just above it, 2.2e-4 was measured).
LOOP_RESOLUTION = 500.0 * 2.0 ** -53

# Central finite-difference step for derivative cross-checks.
# Error model: O(step^2) truncation + O(eps_machine/step) roundoff.
FD_STEP = 1e-5


def guard(eps: float, a: float, b: float = 0.0) -> float:
    """eps (1 + a + b), formed as (2 eps) (0.5 + 0.5 a + 0.5 b) in that
    order: halving and doubling are exact, so it is the float
    eps * (1.0 + a + b) wherever that is finite, and it stays finite for
    all finite a, b >= 0, where the plain sum can pass the float range."""
    return (2.0 * eps) * (0.5 + 0.5 * a + 0.5 * b)
