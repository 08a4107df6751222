"""Outside-in layer trace: wrappers around the solver's module boundaries.

Each wrapper replaces the binding that the calling module looks up (for
example ``resilcfg.synthesis.remove_dead``, the name ``synthesis`` calls),
so the program itself carries no hooks.  A span records its call count, its
inclusive seconds and its self seconds (inclusive minus the time of the
spans it caused).  A span that re-enters itself, as ``resilient_node`` does,
adds inclusive time only at its outermost activation.  Spans are aggregated
in memory; ``Tracer.snapshot`` hands the totals to the caller, which writes
them out when the run ends.

Timed runs never install these wrappers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from resilcfg import modelio, quotient, reconfig, synthesis
from resilcfg.model import Config
from resilcfg.synthesis import Policy, Synthesizer


class Span:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span and counter aggregation for one traced run."""

    def __init__(self):
        self.spans = {}
        self.counts = {}
        self._stack = []  # child seconds accumulated per open frame
        self._patches = []
        self._node_keys = set()
        self._failed_sets = set()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name, fn, on_result=None, on_call=None):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span.calls += 1
            span.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                span.depth -= 1
                span.self_s += dur - children
                if span.depth == 0:
                    span.incl += dur
                if stack:
                    stack[-1] += dur
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, wrapper_factory):
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(wrapper_factory(original.__func__))
        else:
            replacement = wrapper_factory(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, **hooks):
        self._patch(owner, attr, lambda fn: self._wrap(name, fn, **hooks))

    # -- per-model counters ---------------------------------------------------

    def _resilient_node_call(self, args):
        _, node, fs = args
        self._node_keys.add((node, fs))
        self._failed_sets.add(fs)

    def end_model(self):
        """Fold the per-model distinct-key sets into the counters."""
        self.count("synthesis.resilient_node.distinct", len(self._node_keys))
        self.count("synthesis.failed_sets", len(self._failed_sets))
        self._node_keys = set()
        self._failed_sets = set()

    # -- installation ---------------------------------------------------------

    def _install(self):
        span, count = self._span, self.count
        for name in ("load_model", "save_policy", "save_report",
                     "load_policy"):
            span(modelio, name, "modelio." + name)

        span(synthesis, "generate_all_configs",
             "enumeration.generate_all_configs",
             on_result=lambda r: count("enumeration.all_cfgs", len(r)))
        span(synthesis, "generate_init_configs",
             "enumeration.generate_init_configs",
             on_result=lambda r: count("enumeration.init_cfgs", len(r)))

        span(synthesis, "partition_members", "quotient.partition_members",
             on_result=lambda r: count("quotient.classes", len(r)))
        span(synthesis, "signature", "quotient.signature")
        span(quotient, "signature", "quotient.signature")

        span(Synthesizer, "build", "synthesis.build")
        span(Synthesizer, "solve", "synthesis.analyze")
        span(Synthesizer, "state_config", "synthesis.state_config")
        span(Synthesizer, "resilient_node", "synthesis.resilient_node",
             on_call=self._resilient_node_call)
        span(Synthesizer, "extract_policy", "synthesis.extract_policy")
        span(synthesis, "verify_policy", "synthesis.verify_policy")
        span(synthesis, "replay_schedule", "synthesis.replay_schedule")
        span(Policy, "root_config", "synthesis.Policy.root_config")

        span(synthesis, "remove_dead", "failures.remove_dead")
        span(synthesis, "worst_next_failed_sets",
             "failures.worst_next_failed_sets")
        span(synthesis, "avail", "availability.avail")

        span(synthesis, "can_reconfigure", "reconfig.can_reconfigure",
             on_result=lambda r: count("reconfig.can_reconfigure.accepts",
                                       1 if r else 0))
        # derive_actions raises NoWitnessError when no ordering exists, so
        # a normal return is a witness.
        span(synthesis, "derive_actions", "reconfig.derive_actions",
             on_result=lambda r: count("reconfig.derive_actions.witnesses"))
        span(synthesis, "apply_action", "reconfig.apply_action")

        self._patch(Config, "make",
                    lambda fn: self._counter("model.Config.make.calls", fn))
        span(reconfig, "valid_config", "model.valid_config")
        span(synthesis, "valid_config", "model.valid_config")

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every traced boundary for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: ``{name: value}`` for every span field and count."""
        out = dict(self.counts)
        for name, s in self.spans.items():
            out[name + ".calls"] = s.calls
            out[name + ".s"] = s.incl
            out[name + ".self_s"] = s.self_s
        return out
