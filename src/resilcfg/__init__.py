"""resilcfg: synthesis of resilient distribution and replication
configurations, with reconfiguration policies for failover.

Given a declarative model of heterogeneous hardware, interdependent
software, and replication protocols, plus a failure model and a set of
critical functionalities, the solver finds every initial configuration from
which the system can keep all critical functionalities continuously
available under the declared failures, and emits the reconfiguration policy
that achieves it.
"""

from .model import (
    Computer,
    Config,
    Device,
    ModelError,
    RepProtocol,
    RepSwInst,
    Software,
    SwInst,
    SystemModel,
    compatible,
    quorum_size,
    rep_inst,
    resources_ok,
    run,
    valid_config,
)
from .failures import (
    FailBound,
    FailureModel,
    State,
    apply_failures,
    apply_recovery,
    consistent,
    fs_key,
    is_unlimited_rate,
    next_failed_sets,
    remove_dead,
    worst_next_failed_sets,
)
from .availability import avail, avail_dev, avail_on, can_run, live
from .reconfig import (
    ActionRejected,
    ChangeReps,
    Move,
    NoWitnessError,
    Start,
    Stop,
    StopRep,
    apply_action,
    can_reconfigure,
    derive_actions,
)
from .enumeration import (
    ResilienceRequirement,
    critical_software,
    generate_all_configs,
    generate_init_configs,
    max_simult_fail,
)
from .quotient import (
    CanonicalSignature,
    partition_by_class,
    partition_members,
    relocatable,
    rs_equivalent,
    signature,
)
from .synthesis import (
    Policy,
    Quality,
    ReplayError,
    SolveResult,
    Synthesizer,
    quality,
    replay_schedule,
    verify_policy,
    worst_burst_schedules,
)
from .modelio import (
    ModelLoadError,
    load_model,
    load_policy,
    model_fingerprint,
    save_model,
    save_policy,
    save_report,
)

__version__ = "0.1.0"
