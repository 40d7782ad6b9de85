"""Synchronization of a QKD receiver from a co-propagating classical link.

The transmitter locks a 50 MHz polarization-qubit train and a
1.25 Gb/s OOK PRBS-31 classical stream to one master clock.  The
receiver recovers that clock from the classical transitions (CDR),
divides it into ~10 kHz sync pulses s_i, and reconstructs qubit arrival
times by per-interval rescaling

    q' = (q - s_i) / (s_{i+1} - s_i) * delta_s,

folding q' into the 20 ns qubit slot.  The package simulates the whole
chain — oscillators with offset/drift/jitter, PRBS modulation and
clock recovery, photon detection and time-tagging — and provides the
analysis (folding, Gaussian peak fitting, slot matching, QBER) plus
scenario runners and a CLI reproducing the arrival-time, decimation,
blocking, and Doppler experiments.
"""

from .rng import choice_at, derive_key, generator, normal_at, uniform_at
from .timebase import (
    ClockConfigError,
    ClockModel,
    EdgeTrain,
    local_time,
    quantize,
    reading_time,
)
from .classical_link import (
    NoLockError,
    OokStream,
    RecoveredClock,
    SyncPulseTrain,
    block_channel,
    cdr_track,
    derive_sync_pulses,
    modulate_ook,
    prbs31_bits,
    recovered_fractional_offset,
    synthesize_sync_train,
)
from .quantum_link import (
    ChannelConfigError,
    ChannelParams,
    DetectionSet,
    QubitPattern,
    detector_basis,
    measure_polarization,
    time_tag,
)
from .sync_recovery import (
    ArrivalHistogram,
    FitError,
    FoldedArrivals,
    GaussianFit,
    RescaledArrivals,
    SweepTable,
    decimation_sweep,
    fit_gaussian,
    fit_or_equivalent,
    fold,
    fwhm_equivalent,
    histogram,
    require_peak,
    rescale,
)
from .qkd_analysis import (
    AnchorScan,
    MatchedPairs,
    MatchingError,
    PhaseOffset,
    QberSeries,
    assign_slots,
    compute_qber,
    incompatible_fraction,
    match_detections,
    recover_phase,
    refine_anchor,
    sift,
)
from .config import ConfigError, SCHEMA, defaults, resolve
from .simulate import (
    ArrivalResult,
    BlockingResult,
    DecimationResult,
    DopplerResult,
    build_clocks,
    channel_from_config,
    detections_from_config,
    make_sync_train,
    pattern_from_config,
    run_arrival_experiment,
    run_blocking_experiment,
    run_decimation_experiment,
    run_doppler_check,
    sample_detections,
)

__version__ = "0.1.0"
