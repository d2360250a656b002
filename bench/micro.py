"""Micro-kernel loops for the per-layer `_us` and `_ns` metrics.

Usage: python3 bench/micro.py   (prints one JSON object)

Each kernel runs on fixed operands defined here, is checked once, warmed
up, and then timed in batches of about BATCH_S seconds; the reported time
per call is the median over the batches.
"""

import json
import statistics
import sys
import time
from fractions import Fraction as F

from twistctl.finitefield import finite_field
from twistctl.forms import finite_field_ring, mat_det, mat_identity, mat_inv, mat_mul
from twistctl.numberfield import field_make

BATCH_S = 0.02
BATCHES = 9

# Q(i) and the cubic-Klein field Q(zeta_3, sqrt 2) on theta = sqrt2 + zeta_3,
# with their automorphism tables (images of the generator, power basis).
GAUSSIAN = ([1, 0, 1], [[0, 1], [0, -1]])
CUBIC_KLEIN = ([7, -2, -1, 2, 1],
               [[0, 1, 0, 0],
                [F(-1, 11), F(7, 11), F(-6, 11), F(-4, 11)],
                [F(-10, 11), F(-7, 11), F(6, 11), F(4, 11)],
                [-1, -1, 0, 0]])
# An invertible 3x3 matrix over F_4, as field codes.
F4_MATRIX = ((1, 2, 3), (0, 1, 2), (3, 0, 1))


def per_call(fn, scale: float) -> float:
    """Median seconds per call of fn(), times scale."""
    for _ in range(100):
        fn()
    n, start = 1, time.perf_counter()
    while True:
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BATCH_S / 4:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * scale


def main() -> dict:
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    q_i = field_make(*GAUSSIAN)
    a2, b2 = q_i.element([F(3, 7), F(-5, 2)]), q_i.element([F(-11, 3), F(4, 9)])
    ck = field_make(*CUBIC_KLEIN)
    a4 = ck.element([F(1, 2), -3, F(5, 7), 2])
    b4 = ck.element([F(-4, 3), F(1, 5), 7, F(-1, 11)])
    check(a2 * b2 * b2.inverse() == a2, "deg-2 product")
    check(a4 * b4 * b4.inverse() == a4, "deg-4 product and inverse")
    check(ck.apply_aut(3, ck.apply_aut(3, a4)) == a4, "deg-4 automorphism")

    ff = finite_field(4)
    ring = finite_field_ring(ff)
    check(not ring.is_zero(mat_det(ring, F4_MATRIX)), "F_4 determinant")
    check(mat_mul(ring, F4_MATRIX, mat_inv(ring, F4_MATRIX))
          == mat_identity(ring, 3), "F_4 inverse")
    pairs = [(a, b) for a in range(4) for b in range(4)]
    check(all(ff.mul(a, b) == ff.mul(b, a) for a, b in pairs), "F_4 product")

    def field_products():
        for a, b in pairs:
            ff.mul(a, b)

    metrics = {
        "numberfield.mul_us.deg2": per_call(lambda: a2 * b2, 1e6),
        "numberfield.mul_us.deg4": per_call(lambda: a4 * b4, 1e6),
        "numberfield.inverse_us.deg4": per_call(a4.inverse, 1e6),
        "numberfield.apply_aut_us.deg4": per_call(lambda: ck.apply_aut(3, a4), 1e6),
        "forms.mat_det_us": per_call(lambda: mat_det(ring, F4_MATRIX), 1e6),
        "forms.mat_inv_us": per_call(lambda: mat_inv(ring, F4_MATRIX), 1e6),
        "finitefield.mul_ns": per_call(field_products, 1e9 / len(pairs)),
    }
    return {"correct": not failures, "failures": failures, "metrics": metrics}


if __name__ == "__main__":
    json.dump(main(), sys.stdout, sort_keys=True)
    print()
