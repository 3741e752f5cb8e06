"""Who wins at each (arithmetic width, block length) cell?

SK with noiseless feedback reaches essentially error-free operation for
small blocks at full precision, but narrower state arithmetic moves its
breakdown to ever smaller K: at 8 bits the variance bookkeeping
underflows after a handful of iterations.  A fixed reference code with
precision-insensitive BER (loaded from a user-supplied table) therefore
wins everywhere at low widths and loses to SK at high widths and small K.

The bundled data/deepcode_reference_sample.csv holds approximate,
hand-transcribed baseline values meant for demonstration; substitute
your own measurements for real comparisons.

A cell counts as a win only when the whole confidence interval clears
the reference value, so certifying a win against a 1e-6-grade baseline
needs several million clean bits.  At this demo's quick budget the
SK-favored region (high precision, small-to-mid K) therefore shows ties;
raise TRIALS to resolve them into wins.

Runtime: a few seconds.
"""

import pathlib
import sys

from skfb import SkConfig, read_reference_table, sweep_precision_grid

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "data" / "deepcode_reference_sample.csv"

TRIALS = 5_000
PRECISIONS = (8, 16, 32, 64)
K_VALUES = (1, 2, 4, 8, 16, 24, 32, 40, 48)


def main() -> int:
    table = read_reference_table(REFERENCE)
    base = SkConfig(k=1, seed=31415)
    rows = sweep_precision_grid(base, PRECISIONS, K_VALUES, table, trials=TRIALS)
    verdicts = {(row.precision_bits, row.k): row.verdict for row in rows}

    legend = {"sk_wins": "S", "reference_wins": "R", "tie": "=", "unavailable": "?"}
    print("rows: precision bits, columns: K =", " ".join(f"{k:>3d}" for k in K_VALUES))
    for bits in PRECISIONS:
        marks = [legend[verdicts[bits, k]] for k in K_VALUES]
        print(f"{bits:>4d}-bit  " + "   ".join(marks))
    print()
    print("S = SK wins, R = reference wins, = tie (CI overlaps reference)")
    print()
    print("precision_bits,k,ber,ci_low,ci_high,reference_ber,verdict")
    for row in rows:
        print(
            f"{row.precision_bits},{row.k},{row.ber!r},{row.ci_low!r},"
            f"{row.ci_high!r},{row.reference_ber!r},{row.verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
