"""Analysis and simulation toolkit for mixed positive/negative feedback amplifiers.

A first-order load closed through a saturated sum of a fast positive and a
slow negative feedback channel can be tuned, via a gain k and a balance beta,
between a globally stable regime, a limit-cycle regime, and a multistable
regime.  This package certifies those regimes from frequency-domain criteria
(exact minima of shifted Nyquist loci, circle criterion, passivity
composition), enumerates and classifies equilibria, simulates trajectories,
and extends the analysis to parallel channel banks and passive external
loads.
"""

__version__ = "0.1.0"

from .tf_core import (
    RationalTF,
    poly_roots,
    tf_shift,
)
from .freq_analysis import (
    DominanceCertificate,
    check_p_passivity,
    min_real_part,
    midpoint_rate,
    nyquist_locus,
)
from .equilibria import (
    Equilibrium,
    LureLoop,
    MapCell,
    RegimeClassification,
    classify_stability,
    dominance_map,
)
from .sim import (
    InputSchedule,
    OscillationReport,
    StateSpace,
    Trajectory,
    boundedness_check,
    detect_oscillation,
    integrate,
)
from .multichannel import (
    Channel,
    ChannelBank,
    InterlacingReport,
    bank_critical_balance,
    check_interlacing,
)
from .interconnect import (
    CompositionCertificate,
    InterfaceGains,
    LoadParams,
    compose_certificates,
    load_tf,
)
