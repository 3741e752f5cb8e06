"""Monte Carlo simulator for SK feedback coding over AWGN channels.

Library layout:

    core       message bits, 2^K-ary PAM mapping, configuration
    precision  emulated reduced-precision floating point
    channel    AWGN channels with counter-based reproducible noise
    codec      the SK recursion (both variants), analytic BER oracle
    engine     BER estimation, the three sweeps and gamma optimization,
               returning CSV rows; SKFB_THREADS caps their worker pool
    records    CSV records, and the reader of the external reference-BER
               table, a dict keyed by (width, feedback SNR)
    cli        the ``skfb`` command-line tool

The top level exports the experiment API; the channel and codec
building blocks are imported from their own modules.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    BitMapping,
    MAX_K,
    SkConfig,
    SkVariant,
    pam_step,
)
from .precision import PrecisionMode, quantize  # noqa: F401
from .codec import analytic_ber_oracle  # noqa: F401
from .engine import (  # noqa: F401
    estimate_ber,
    measure_symbol_power,
    optimize_gamma,
    sweep_block_length,
    sweep_feedback_snr,
    sweep_precision_grid,
)
from .records import (  # noqa: F401
    RunRecord,
    read_reference_table,
    write_csv,
)
