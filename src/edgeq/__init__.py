"""Edge-vs-cloud queueing trade-off toolkit.

Closed-form latency and capacity formulas for distributed edge clouds
with user mobility, plus the discrete-event and VM-packing simulators
that validate them. See the README for the CLI and scenario harness.
"""

from .analytic import (
    AggregateProfile,
    delta_t_bound_ggk,
    delta_t_bound_mmk,
    destination_wait,
    empirical_rule_capacities,
    erlang_c_wait,
    excess_wait_sinusoidal,
    fluid_backlog,
    gg1_two_phase_wait,
    ggk_cloud_wait,
    migration_service_time,
    mm1_source_wait,
    mm1_two_phase_wait,
    mmk_qed_wait,
    overload_window,
    rush_hour_wait,
    service_scv,
)
from .capacity import (
    PackingReport,
    Topology,
    VmTrace,
    cloud_capacity_equivalent,
    dtrp_response_time,
    edge_overprovision_factor,
    load_vm_trace,
    simulate_packing,
    synthetic_vm_trace,
)
from .desim import SimConfig, SimMetrics, TimeSeriesMetrics, replicate, run_model
from .errors import (
    ConfigError,
    DomainError,
    EdgeqError,
    EmptyTrace,
    InstabilityDetected,
    OversizedVm,
    ParseError,
    UnreachableScv,
    UnstableQueue,
)
from .harness import ComparisonRow, Scenario, load_scenario, run_scenario
from .specs import (
    CloudSpec,
    DtrpSpec,
    NetworkSpec,
    PhaseMoments,
    QueueSpec,
    SinusoidProfile,
    VariabilitySpec,
)
from .workload import (
    RenewalSpec,
    SeededStream,
    nhpp_sinusoidal,
    phase_shifted_sites,
    poisson_arrivals,
    renewal_times,
)

__version__ = "0.2.0"  # also the stream-format version: seeded draws are fixed within it
