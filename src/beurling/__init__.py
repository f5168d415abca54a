"""Computable Beurling generalised prime systems."""

__version__ = "0.1.0"

from .systems import (  # noqa: F401
    GInteger,
    GPrimeSystem,
    G_ONE,
    from_file,
    from_list,
    g_integer,
    g_multiply,
    gaussian_system,
    power_system,
    rational_primes,
)
from .counting import (  # noqa: F401
    CountingReport,
    count_N,
    count_pi,
    counting_report,
    g_integer_values,
    gap_window,
    psi,
    stream_gintegers,
    von_mangoldt,
)
