"""Where does double precision stop being enough?

The SK recursion shrinks the receiver's estimation error by a constant
factor per channel use, so the power-normalization gain alpha_n grows
geometrically.  Once the constellation spacing of a 2^K-ary PAM block
falls near the rounding floor of the arithmetic, the bit error rate
jumps by orders of magnitude within a couple of K.

This script sweeps K at fixed rate 1/3 and 0 dB forward SNR with
noiseless feedback for both transmitter recursions.  The two forms are
algebraically identical, but the error-recursion form re-derives the
error signal incrementally and accumulates rounding drift the
estimate-difference form self-corrects, so its cliff arrives a few K
earlier.  With 64-bit arithmetic the error-recursion cliff shows at
K=50.  The estimate-difference cliff lies near K=53, between two
sampled points: the table, which samples even K only, shows no error at
K=52 and a BER of 1.5e-2 at K=54.

Runtime: a few seconds at the default budget.  Pipe stdout to a file
for a plot-ready CSV.
"""

import sys

from skfb import SkConfig, SkVariant, sweep_block_length

TRIALS = 20_000
K_VALUES = range(44, 61, 2)


def main() -> int:
    print("variant,k,n_total,trials,bit_errors,ber,ci_high")
    for variant in SkVariant:
        base = SkConfig(variant=variant, k=44, n_total=132, seed=2718)
        for row in sweep_block_length(base, K_VALUES, rate=1.0 / 3.0, trials=TRIALS):
            print(
                f"{row.variant},{row.k},{row.n_total},{row.trials},"
                f"{row.bit_errors},{row.ber!r},{row.ci_high!r}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
