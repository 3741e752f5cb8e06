"""Boosting the first transmission: the gamma knob.

The first channel use carries the message point itself; every later use
only refines the receiver's estimate.  Spending more than the uniform
share of energy on the first use (gamma > 1) lowers the starting error
variance at the cost of slightly weaker corrections, and the closed-form
BER oracle shows the trade-off has an interior optimum near gamma = 2 at
0 dB.  Total block energy is held fixed while gamma varies.

Runtime: instant (closed form, no simulation).
"""

import sys

from dataclasses import replace

from skfb import SkConfig, analytic_ber_oracle, optimize_gamma
from skfb.codec import terminal_estimate_std

GRID = [0.25 * i for i in range(2, 17)]  # 0.5 .. 4.0


def main() -> int:
    cfg = SkConfig(k=10, n_total=30, forward_snr_db=0.0)
    rows = optimize_gamma(cfg, GRID)

    print("gamma,terminal_std,oracle_ber,is_best")
    for row in rows:
        spread = terminal_estimate_std(replace(cfg, gamma=row.gamma))
        print(f"{row.gamma!r},{spread!r},{row.oracle_ber!r},{row.is_best}")
    [best] = [row for row in rows if row.is_best]
    print()
    print(f"best gamma on the grid: {best.gamma} (oracle BER {best.oracle_ber!r})")
    uniform = analytic_ber_oracle(cfg)
    print(f"uniform allocation (gamma=1) oracle BER: {uniform!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
