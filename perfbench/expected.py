"""Regenerate ``expected_stepwise.json``, the counts ``driving-stepwise``
checks against.

The paper has no table for crashes that arrive one per burst, so the
expected counts come from a solve that takes another path than the
benchmark's: ``quotient="partial"`` searches concrete configurations,
one per initial class, where the benchmark's ``quotient="full"`` solve
searches class signatures.  Run from the root of a checkout::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from resilcfg import Synthesizer, modelio  # noqa: E402

import workloads  # noqa: E402

SCALES = (2, 4)


def stepwise_counts(scale: int) -> dict:
    """The five counts of each driving model with one crash per burst."""
    out = {}
    for case in workloads.driving_cases(scale, stepwise=True, expected={}):
        sys_, req = modelio.model_from_dict(case.raw)
        result = Synthesizer(sys_, req, quotient="partial").solve("best")
        out[case.name] = list(result.counts())
    return out


def main() -> int:
    table = {}
    for scale in SCALES:
        for name, counts in stepwise_counts(scale).items():
            table.setdefault(name, {})[str(scale)] = counts
    with open(workloads.EXPECTED_STEPWISE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(table, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
