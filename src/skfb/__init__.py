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
from .channel import AwgnChannel, make_channels  # noqa: F401
from .codec import (  # noqa: F401
    SkState,
    analytic_ber_oracle,
    sk_init,
    sk_step,
)
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
