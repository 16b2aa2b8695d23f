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
    AmplifierParams,
    INFINITE_ZERO,
    Polynomial,
    RationalTF,
    poly_roots,
    tf_build_mixed,
    tf_eval,
    tf_multiply,
    tf_shift,
    tf_zero_mixed,
)
from .freq_analysis import (
    DominanceCertificate,
    FrequencyGrid,
    check_p_dominance,
    check_p_passivity,
    count_unstable_shifted_poles,
    critical_balance,
    critical_gain,
    min_real_part,
    nyquist_locus,
    select_rate,
)
from .equilibria import (
    Equilibrium,
    RegimeClassification,
    classify_regime,
    classify_stability,
    dc_loop_gain,
    dominance_map,
    find_equilibria,
    jacobian_at,
)
from .sim import (
    InputSchedule,
    OscillationReport,
    StateSpace,
    Trajectory,
    amplifier_statespace,
    boundedness_check,
    detect_oscillation,
    integrate,
    vector_field,
)
from .multichannel import (
    Channel,
    ChannelBank,
    InterlacingReport,
    bank_critical_balance,
    build_channel_tf,
    build_extended_openloop,
    check_interlacing,
    realize_diagonal,
)
from .interconnect import (
    CompositionCertificate,
    InterfaceGains,
    LoadParams,
    assemble_closed_loop,
    check_load_passivity,
    compose_certificates,
    find_equilibria_interconnected,
    load_tf,
)
