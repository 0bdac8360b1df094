"""Electro-hydraulic servo system simulation, sliding-mode observers and
leakage-fault reconstruction."""

from .analysis import (
    ChannelMetrics,
    LyapunovCheck,
    MetricsReport,
    chattering_index,
    channel_metrics,
    comparison_table,
    lyapunov_matrices,
    norms,
    reach_time,
    reach_time_bound,
    rms,
)
from .cells import (
    AstwCellParams,
    AstwCellState,
    GainCheck,
    astw_step,
    check_gain_condition,
    fosmo_step,
    sign,
    sqrt_sign,
    stw_step,
)
from .harness import (
    ConfigError,
    ControllerGains,
    FaultWindow,
    InitialPlantState,
    NoiseStd,
    NumericalAbort,
    PositionProfile,
    Scenario,
    Sinusoid,
    SimTrace,
    TRACE_COLUMNS,
    default_scenario,
    nofault_scenario,
    noisy_scenario,
    pi_controllers,
    read_scenario,
    run_scenario,
    step_closed_loop,
    write_scenario,
)
from .observer import (
    ChannelInjections,
    FosmoGains,
    InitialEstimates,
    ObserverConfig,
    ObserverState,
    StwGains,
    init_observer,
    observer_step,
)
from .plant import (
    ControlInputs,
    DomainViolation,
    FaultInputs,
    PlantParams,
    PlantState,
    advance_plant,
    leakage_flows,
)
from .reconstruction import (
    FaultEstimate,
    estimate_faults,
    lowpass,
    reconstruct_faults,
)

__version__ = "0.1.0"
