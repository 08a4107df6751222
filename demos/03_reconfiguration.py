"""Reconfigure around a crash: the relation, a witness sequence, replay.

After c0 dies, the planner must shrink its replica set to the survivor and
the locator must be restarted there.  ``can_reconfigure`` decides the move
is legal in one pass; ``derive_actions`` produces the action sequence, which
is then replayed step by step.
"""

from resilcfg import (
    Config,
    State,
    SwInst,
    apply_action,
    apply_failures,
    can_reconfigure,
    derive_actions,
    rep_inst,
)
from resilcfg.reconfig import describe_action
from resilcfg.fixtures import tiny

sys, req = tiny()
initial = Config.make(
    [SwInst("LOC", "c0")],
    [rep_inst("PLAN", "primary-backup", ["c0", "c1"], primary="c0")],
)

state = apply_failures(State(initial), {"c0"}, sys)
print("state after the crash:", state.cfg)

target = Config.make(
    [SwInst("LOC", "c1")],
    [rep_inst("PLAN", "primary-backup", ["c1"], primary="c1")],
)
print("desired target      :", target)
print("reconfigurable?     :",
      can_reconfigure(state.cfg, target, state.fs, sys))

actions = derive_actions(state.cfg, target, state.fs, sys)
print("\nwitness sequence:")
for act in actions:
    print("  ", describe_action(act))

print("\nreplaying:")
for act in actions:
    state = apply_action(state, act, sys)
    print("  after %-40s %s" % (describe_action(act) + ":", state.cfg))
assert state.cfg == target

# Note the ordering constraint the derivation satisfied: the locator had to
# be restarted before the membership change, because the new primary needs
# the locator's functionality to take over.
