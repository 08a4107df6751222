"""Command-line front-end.

``solve`` finds resilient initial configurations and writes the policy and
report; ``validate`` lints a model file; ``replay`` drives a policy through
a burst schedule and checks that critical functionality never lapses.

Exit codes: 0 on success (solve found at least one resilient configuration,
validation clean, replay clean); 1 when no resilient configuration exists
or a replay fails; 2 on input errors, including a policy file of another
format version or solved for another model, a replay schedule that names
unknown hardware, fails hardware twice, or fails more than the failure
model allows, and ``replay --exhaustive`` given a schedule or a root.
"""

from __future__ import annotations

import argparse
import sys as _sys

from .model import ModelError
from .failures import fs_key
from .synthesis import ReplayError, Synthesizer, replay_schedule, verify_policy
from . import modelio

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="resilcfg",
        description="Synthesize resilient configurations and failover policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find resilient initial configurations")
    p_solve.add_argument("--model", required=True, help="model JSON file")
    p_solve.add_argument("--mode", choices=("resilient", "best"),
                         default="best",
                         help="both list every resilient class best first; "
                              "only the report's mode field differs")
    p_solve.add_argument("--quotient", choices=("off", "partial", "full"),
                         default="full",
                         help="how much of the equivalence-class reduction "
                              "to use (partial: initial candidates only)")
    p_solve.add_argument("--policy-out", help="write the policy JSON here")
    p_solve.add_argument("--report-out", help="write the run report here")
    p_solve.add_argument("--list-all", action="store_true",
                         help="print every resilient class, not just the best")

    p_val = sub.add_parser("validate", help="check a model file")
    p_val.add_argument("model", help="model JSON file")

    p_rep = sub.add_parser("replay", help="replay a policy against bursts")
    p_rep.add_argument("--model", required=True)
    p_rep.add_argument("--policy", required=True)
    p_rep.add_argument("--schedule",
                       help="JSON file: list of bursts, each a list of "
                            "hardware ids that crash together")
    p_rep.add_argument("--root", type=int, default=None,
                       help="root index (default: replay every root)")
    p_rep.add_argument("--exhaustive", action="store_true",
                       help="replay every worst-case burst schedule")
    return parser


def _cmd_solve(args) -> int:
    sys_model, req = modelio.load_model(args.model)
    syn = Synthesizer(sys_model, req, quotient=args.quotient)
    result = syn.solve(args.mode)
    print("allCfg=%d initCfg=%d classes=%d/%d resilient=%d"
          % result.counts())
    print("generate %.2fs, analyze %.2fs"
          % (result.generate_seconds, result.analyze_seconds))
    shown = result.resilient if args.list_all else result.resilient[:1]
    for sig, q, cfg in shown:
        print("qos=%d cost=%d  %s" % (q.qos, q.cost, _short_config(cfg)))
    if args.policy_out:
        modelio.save_policy(result.policy, args.policy_out)
    if args.report_out:
        modelio.save_report(result, args.report_out, args.model)
    return EXIT_OK if result.n_resilient_classes else EXIT_NO_SOLUTION


def _short_config(cfg) -> str:
    parts = ["%s@%s" % (s.sw, s.computer) for s in cfg.si]
    parts += ["%s x{%s}%s" % (r.sw, ",".join(r.computers),
                              " p=" + r.primary if r.primary else "")
              for r in cfg.rsi]
    return " ".join(parts)


def _cmd_validate(args) -> int:
    modelio.load_model(args.model)
    print("%s: ok" % args.model)
    return EXIT_OK


def _cmd_replay(args) -> int:
    if args.exhaustive and (args.schedule, args.root) != (None, None):
        raise modelio.ModelLoadError("replay --exhaustive takes neither "
                                     "--schedule nor --root")
    sys_model, req = modelio.load_model(args.model)
    policy = modelio.load_policy(args.policy)
    if policy.model != modelio.model_fingerprint(sys_model, req):
        raise modelio.ModelLoadError("%s was solved for another model than %s"
                                     % (args.policy, args.model))
    if args.exhaustive:
        n = verify_policy(policy, sys_model, req)
        print("ok: %d worst-case schedules replayed across %d roots"
              % (n, len(policy.roots)))
        return EXIT_OK
    if not args.schedule:
        raise modelio.ModelLoadError("replay needs --schedule or --exhaustive")
    bursts = modelio.load_schedule(args.schedule, sys_model, req)
    roots = list(policy.roots.items())
    if args.root is not None:
        if not 0 <= args.root < len(roots):
            raise modelio.ModelLoadError(
                "--root %d is out of range: %s" % (args.root, (
                    "valid roots are 0 to %d" % (len(roots) - 1)
                    if roots else "the policy has no roots")))
        roots = [roots[args.root]]
    for sig, cfg in roots:
        final = replay_schedule(policy, sig, bursts, sys_model, req)
        print("root %s: ok, final failed set %s"
              % (_short_config(cfg), list(fs_key(final.fs))))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_replay(args)
    except (ModelError, OSError) as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_INPUT_ERROR
    except ReplayError as exc:
        print("replay failed: %s" % exc, file=_sys.stderr)
        return EXIT_NO_SOLUTION


if __name__ == "__main__":
    raise SystemExit(main())
