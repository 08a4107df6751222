"""The universe build against per-configuration references.

``Synthesizer.build`` builds each configuration from canonical option
tuples, signs it once through the shared signer and derives the initial
classes from the class members.  Each of those shortcuts is checked here
against the slow per-configuration form it replaces.
"""

import random

import pytest

from resilcfg import Config, Synthesizer, fixtures, relocatable, signature
from resilcfg.synthesis import QUOTIENT_MODES
from conftest import random_model


def _models(group):
    if group == "fixtures":
        return [builder() for builder in fixtures.BUILDERS.values()]
    if group == "driving":
        return [builder(scale)
                for builder in (fixtures.autonomous_driving_laptop,
                                fixtures.autonomous_driving_phone)
                for scale in (2, 3)]
    rng = random.Random(8)
    return [random_model(rng) for _ in range(100)]


def _relocatable_reference(sw, cfg, sys):
    """``relocatable`` written out over every instance of ``cfg``, from the
    component's raw attributes."""
    if not (sw.fast_starting and sw.resumable and not sw.persis_state):
        return False
    others = ([sys.software[s.sw] for s in cfg.si]
              + [sys.software[r.sw] for r in cfg.rsi])
    for other in others:
        if sw.fn in other.fn_req and not sw.remote_use:
            return False
        if other.fn in sw.fn_req and not other.remote_use:
            return False
    return True


def _signature_reference(cfg, sys):
    """(fixed instances, replicated instances, relocatable bag) of ``cfg``,
    one relocatability test per instance."""
    fixed, bag = [], []
    for si in cfg.si:
        sw = sys.software[si.sw]
        if _relocatable_reference(sw, cfg, sys):
            devices = sw.devices & sys.computers[si.computer].devices
            bag.append((si.sw, tuple(sorted(devices))))
        else:
            fixed.append(si)
    rsi = tuple((r.sw, r.protocol, r.computers, r.primary or "")
                for r in cfg.rsi)
    return tuple(sorted(fixed)), rsi, tuple(sorted(bag))


@pytest.mark.parametrize("mode", QUOTIENT_MODES)
@pytest.mark.parametrize("group", ["fixtures", "driving", "random"])
def test_build_matches_per_configuration_references(group, mode):
    for sys, req in _models(group):
        syn = Synthesizer(sys, req, quotient=mode)
        syn.build()

        for cfg in syn.all_cfgs:
            made = Config.make(cfg.si, cfg.rsi)
            assert type(cfg.si) is tuple and type(cfg.rsi) is tuple
            assert (cfg.si, cfg.rsi) == (made.si, made.rsi)
        assert [c.key() for c in syn.all_cfgs] == sorted(
            c.key() for c in syn.all_cfgs)

        sigs = list(syn.all_classes)
        assert sigs == sorted(sigs)
        n_members = 0
        for sig, members in syn.all_classes.items():
            keys = [m.key() for m in members]
            assert keys == sorted(keys)
            for member in members:
                assert signature(member, sys) == sig
                assert tuple(sig) == _signature_reference(member, sys)
            n_members += len(members)
        assert n_members == len(syn.all_cfgs)

        assert syn.init_sigs == {signature(c, sys) for c in syn.init_cfgs}

        for cfg in syn.all_cfgs:
            for sw in sys.software.values():
                assert (relocatable(sw, cfg, sys)
                        == _relocatable_reference(sw, cfg, sys)), (sw.id, cfg)
