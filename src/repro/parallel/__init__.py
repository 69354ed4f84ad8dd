"""Parallel restart engine for the same/different dictionary build.

Procedure 1 restarts are independent given the response table, so the
restarted driver fans them out over worker processes; deterministic
per-restart seed streams keep ``jobs=N`` byte-identical to the serial
path.  See ``docs/parallelism.md`` for the seeding model, batch
semantics and metrics-merge caveats.
"""

from .scheduler import RestartFold, RestartScheduler, ScheduleOutcome
from .seeds import derive_restart_seed, restart_order, restart_rng
from .worker import RestartResult, init_worker, run_restart, run_restart_inline

__all__ = [
    "RestartFold",
    "RestartResult",
    "RestartScheduler",
    "ScheduleOutcome",
    "derive_restart_seed",
    "init_worker",
    "restart_order",
    "restart_rng",
    "run_restart",
    "run_restart_inline",
]
