"""How long should an SK block be when the feedback link is noisy?

With output feedback at finite SNR, the transmitter's copy of the
receiver estimate drifts by an amount that the growing gain alpha_n
amplifies geometrically, so each extra iteration eventually hurts more
than it helps.  The best block length therefore grows with feedback
quality: roughly K*=2 at 23 dB, 3 at 33 dB, 4 at 40 dB (forward 0 dB,
rate 1/3).

Runtime: a few seconds at the default budget; raise TRIALS for tighter
tables.
"""

import sys

from skfb import SkConfig, sweep_feedback_snr

TRIALS = 100_000
FEEDBACK_SNRS = (23.0, 33.0, 40.0)
CANDIDATES = range(1, 11)


def main() -> int:
    base = SkConfig(k=1, forward_snr_db=0.0, seed=1618)
    rows = sweep_feedback_snr(base, FEEDBACK_SNRS, CANDIDATES, trials=TRIALS)

    print("feedback_snr_db,k,ber,ci_high,is_best")
    for row in rows:
        print(f"{row.feedback_snr_db!r},{row.k},{row.ber!r},{row.ci_high!r},{row.is_best}")
    print()
    for row in rows:
        if row.is_best:
            print(f"feedback {row.feedback_snr_db:g} dB: best K = {row.k} (BER {row.ber:.3e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
