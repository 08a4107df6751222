"""The listed classes of a build against per-configuration references.

``Synthesizer.build`` enumerates the classes together with their
signatures and lists no member.  ``all_classes`` expands the members
when first read, as the "off" and "partial" solves do, and those solves
take each node's signature from the class it was listed under.  Each listed member is checked here against the slow forms: a
``Config.make`` of its tuples, ``signature`` and a signature written out
from the raw attributes, and a written-out ``relocatable``.  The last test
checks that no solve, in any mode, signs a configuration.
"""

import hashlib

import pytest

from resilcfg import (
    Config,
    Synthesizer,
    generate_all_configs,
    load_model,
    quotient,
    relocatable,
    signature,
    synthesis,
    verify_policy,
)
from resilcfg.modelio import save_policy, save_report
from resilcfg.synthesis import QUOTIENT_MODES
from conftest import model_group
from test_golden_outputs import FIXTURES, GOLDEN


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
    for sys, req in model_group(group):
        syn = Synthesizer(sys, req, quotient=mode)
        syn.build()
        all_cfgs = generate_all_configs(sys, req)

        for cfg in all_cfgs:
            made = Config.make(cfg.si, cfg.rsi)
            assert type(cfg.si) is tuple and type(cfg.rsi) is tuple
            assert (cfg.si, cfg.rsi) == (made.si, made.rsi)
        assert [c.key() for c in all_cfgs] == sorted(
            c.key() for c in all_cfgs)

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
        assert n_members == len(all_cfgs)

        assert syn.init_sigs == {signature(c, sys) for c in syn.init_cfgs}

        for cfg in all_cfgs:
            for sw in sys.software.values():
                assert (relocatable(sw, cfg, sys)
                        == _relocatable_reference(sw, cfg, sys)), (sw.id, cfg)


def _solve_outputs(name, mode, tmp_path):
    """The model of the shipped fixture ``name``, the counts and the SHA-256
    of the policy and report files of solving it, and the policy."""
    sys, req = load_model(FIXTURES / (name + ".json"))
    result = Synthesizer(sys, req, quotient=mode).solve("best")
    policy_path = tmp_path / "policy.json"
    report_path = tmp_path / "report.json"
    save_policy(result.policy, policy_path)
    save_report(result, report_path, "fixtures/%s.json" % name)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (policy_path, report_path))
    return (sys, req), result.counts(), digests, result.policy


def test_no_solve_signs_a_configuration(tmp_path, monkeypatch):
    """Replay signs each root to check its label, so the policies are
    verified once ``signature`` is restored."""
    names = sorted({name for name, _ in GOLDEN})
    cases = [(name, mode) for name in names for mode in QUOTIENT_MODES]
    expected = {}
    for case in cases:
        model, counts, digests, policy = _solve_outputs(*case, tmp_path)
        expected[case] = counts, digests, verify_policy(policy, *model)

    def refuse(cfg, sys):
        raise AssertionError("a solve signed %r" % (cfg,))

    with monkeypatch.context() as patched:
        patched.setattr(quotient, "signature", refuse)
        patched.setattr(synthesis, "signature", refuse)
        solved = {case: _solve_outputs(*case, tmp_path) for case in cases}
    for case, (model, counts, digests, policy) in solved.items():
        n = verify_policy(policy, *model)
        assert (counts, digests, n) == expected[case], case
        if case in GOLDEN:
            assert digests + (n,) == GOLDEN[case], case
