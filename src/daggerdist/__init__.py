"""Exact-arithmetic verification toolkit for polynomial p-valued groups,
the binomial (Mahler) basis, and distribution-algebra norms.

Everything is computed over exact rationals; norms are p-power magnitudes
compared through their exponents, so no floating point or tolerances appear
anywhere.
"""

from .distributions import (
    Distribution,
    convolve,
    dagger_norm,
    dagger_seminorm,
    st_norm,
    st_norm_prime,
)
from .groups import (
    GroupConfigError,
    PValuedGroup,
    builtin_abelian,
    builtin_heisenberg,
    group_to_config,
    load_group,
)
from .mahler import MahlerFamily, mahler_norm, mahler_to_taylor, taylor_to_mahler
from .padic import INFINITY, LogMag, factorial_valuation, valuation
from .report import CheckRecord, Report, emit_json, emit_text
from .series import TruncatedSeries

__all__ = [
    "CheckRecord",
    "Distribution",
    "GroupConfigError",
    "INFINITY",
    "LogMag",
    "MahlerFamily",
    "PValuedGroup",
    "Report",
    "TruncatedSeries",
    "builtin_abelian",
    "builtin_heisenberg",
    "convolve",
    "dagger_norm",
    "dagger_seminorm",
    "emit_json",
    "emit_text",
    "factorial_valuation",
    "group_to_config",
    "load_group",
    "mahler_norm",
    "mahler_to_taylor",
    "st_norm",
    "st_norm_prime",
    "taylor_to_mahler",
    "valuation",
]

__version__ = "0.1.0"
