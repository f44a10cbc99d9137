"""Numerical laboratory for the dispersion of dilated lacunary sequences
on the unit torus: exact gap statistics, certified dilation factors, metric
scans, and continued-fraction machinery."""

from .dyadic import DyadicReal, GapReport, dilate, gap_report
from .errors import LacunaError
from .sequences import (
    LacunarySequence,
    ThinnedSequence,
    geometric_sequence,
    load_sequence,
    save_sequence,
    smallest_l,
    thin,
)
from .turan import (
    DilationCertificate,
    delta_lower_bound,
    find_alpha,
    find_dilation,
    turan_M,
)
from .nested import NestedChain, build_nested_alpha, interpolate_gap_bound
from .cf import ContinuedFraction, QuadraticReal, expand, lambda_estimate, levy_rate
from .bump import BumpFunction, standard_bump
from .metric import (
    MetricParameters,
    ScanTable,
    dispersion_scan,
    exp_moment_check,
    exponent_fit,
    iid_baseline,
    sample_alpha,
    smooth_count_direct,
    smooth_count_fourier,
)
from .littlewood import (
    CZSequence,
    LittlewoodReport,
    cz_build,
    cz_recheck,
    littlewood_scan,
)

__version__ = "0.1.0"
