"""End to end: enumerate, quotient, solve, and read the emitted policy.

Runs the failover-to-laptop model with two embedded computers: five
real-time driving components (perception replicated with primary-backup)
plus non-preferred Linux builds of planning and control that only the
laptop can run.  One embedded computer may crash at a time.
"""

from resilcfg import verify_policy
from resilcfg.fixtures import autonomous_driving_laptop
from resilcfg.reconfig import describe_action
from resilcfg.synthesis import Synthesizer

sys, req = autonomous_driving_laptop(n_computers=2)
result = Synthesizer(sys, req).solve("best")

print("configurations: %d relevant, %d initial" % (result.n_all,
                                                   result.n_init))
print("classes       : %d / %d" % (result.n_all_classes,
                                   result.n_init_classes))
print("resilient     : %d classes" % result.n_resilient_classes)
print()

print("resilient initial classes, best first:")
for sig, q, cfg in result.resilient:
    placements = ["%s@%s" % (s.sw, s.computer) for s in cfg.si]
    placements += ["%s x{%s}" % (r.sw, ",".join(r.computers))
                   for r in cfg.rsi]
    print("  qos=%d cost=%d  %s" % (q.qos, q.cost, " ".join(placements)))
print()

best_sig, best_q, best_cfg = result.resilient[0]
entry = result.policy.entries[(best_cfg, frozenset(), frozenset({"c0"}))]
print("policy for 'c0 crashes' in the best initial configuration:")
for act in entry.actions:
    print("  ", describe_action(act))
print("target:", entry.target_cfg)
print()

checked = verify_policy(result.policy, sys, req)
print("replayed %d worst-case burst schedules: no availability gaps"
      % checked)
