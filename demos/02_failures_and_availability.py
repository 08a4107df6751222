"""Walk a state through failure bursts and watch availability change.

Shows the failure-transition semantics: a burst removes dead instances
(the stateless locator disappears with its host), while a replicated
instance keeps its membership even when a member dies -- changing the
membership is a reconfiguration decision, not a physical consequence.
"""

from resilcfg import (
    Config,
    State,
    SwInst,
    apply_failures,
    apply_recovery,
    avail,
    avail_on,
    next_failed_sets,
    rep_inst,
    worst_next_failed_sets,
)
from resilcfg.fixtures import tiny

sys, req = tiny()
cfg = Config.make(
    [SwInst("LOC", "c0")],
    [rep_inst("PLAN", "primary-backup", ["c0", "c1"], primary="c0")],
)
state = State(cfg)

print("burst successors from the initial (empty) failed set:")
for fs in next_failed_sets(req.fm, state.fs, sys):
    print("  ", sorted(fs))
print("worst-case ones:",
      [sorted(fs) for fs in worst_next_failed_sets(req.fm, state.fs, sys)])
print()

print("initially: loc available:", avail({"loc"}, state.cfg, state.fs, sys),
      "| plan available:", avail({"plan"}, state.cfg, state.fs, sys))

state = apply_failures(state, {"c0"}, sys)
print("\nafter c0 crashes:")
print("  configuration:", state.cfg)
print("  loc available:", avail({"loc"}, state.cfg, state.fs, sys),
      "(the locator died with c0)")
print("  plan on c1:", avail_on("plan", "c1", state.cfg, state.fs, sys),
      "(progress quorum 'all' cannot be met with a dead member)")

state = apply_recovery(state, "c0")
print("\nafter c0 recovers (no reconfiguration yet):")
print("  plan on c1:", avail_on("plan", "c1", state.cfg, state.fs, sys),
      "(replicas are live again, but the planner needs the locator,")
print("   and the dead locator instance is gone until a reconfiguration"
      " restarts it)")

state = State(Config.make(list(state.cfg.si) + [SwInst("LOC", "c1")],
                          state.cfg.rsi), state.fs)
print("\nwith a locator restarted on c1:")
print("  plan on c1:", avail_on("plan", "c1", state.cfg, state.fs, sys))
