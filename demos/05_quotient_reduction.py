"""What the relocatable-software quotient buys.

Relocatable components (stateless, fast-starting, resumable, remotely
usable where needed) can be re-hosted by a stop and a start, so
configurations differing only in their hosts are interchangeable for
resilience purposes.  The analysis explores one representative per class,
and the classes are enumerated directly: their members are counted, and
listed only on request.
"""

import itertools
import time

from resilcfg import rs_equivalent, signature
from resilcfg.fixtures import autonomous_driving_phone
from resilcfg.synthesis import Synthesizer

sys, req = autonomous_driving_phone(n_computers=3)

syn = Synthesizer(sys, req)
result = syn.solve("best")
print("relevant configurations:", result.n_all)
print("equivalence classes    :", result.n_all_classes)

sizes = sorted((cls.size for cls in syn.classes), reverse=True)
print("largest classes        :", sizes[:8])

biggest = max(syn.classes, key=lambda cls: cls.size)
a, b = itertools.islice(biggest.members(), 2)
print("\ntwo members of one class:")
print("  ", a)
print("  ", b)
print("equivalent:", rs_equivalent(a, b, sys))
print("shared signature bag:", signature(a, sys).reloc_bag)

print("\nsolver timing by quotient mode:")
for mode in ("off", "partial", "full"):
    t0 = time.perf_counter()
    res = Synthesizer(sys, req, quotient=mode).solve("best")
    print("  %-7s %5.2fs  resilient classes: %d"
          % (mode, time.perf_counter() - t0, res.n_resilient_classes))
