"""Command line entry points.

Subcommands:
  run             execute a scenario file and write its report
  demo            run a curated bundle by name
  check-causality quick geometric verification on a chosen backend
  check-site      quick site/localization verification on a chosen backend
  list-checks     print the registry

Exit codes: 0 all verdicts as expected, 1 unexpected failure,
2 configuration error, 3 internal error (an engine invariant failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .checks import CLAIM_OF, EXPECTED, REGISTRY
from .geometry import GeometryError, ModelError
from .kleingordon import KgError
from .nets import AqftError
from .scenarios import (DEMOS, ScenarioError, report_bytes, run_scenario,
                        validate_scenario)
from .sites import SiteError


def _emit(report: dict, path) -> int:
    data = report_bytes(report)
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    summary = report["summary"]
    for rec in report["records"]:
        line = f"[{rec['verdict']:4}] {rec['id']}  ({rec['paper_ref']})"
        print(line)
    print(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['skip']} skip, {summary['unexpected']} unexpected")
    return 1 if summary["unexpected"] else 0


def _apply_overrides(config: dict, args) -> dict:
    config = json.loads(json.dumps(config))
    if args.seed is not None:
        config["seed"] = args.seed
    if args.window:
        config.setdefault("spacetime", {})["window"] = args.window
    if args.max_universe is not None:
        config.setdefault("universe", {})["cap"] = args.max_universe
    return config


def _window(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        return [int(lo), int(hi)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must read LO..HI, e.g. -12..14, not {text!r}")


def _join_window(argv: list[str]) -> list[str]:
    """argparse reads the spaced form ``--window -12..14`` as a flag with no
    value, since its value starts with '-', so join each ``--window`` with
    its next token as ``--window=-12..14``."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        nxt = next(tokens, None) if tok == "--window" else None
        out.append(tok if nxt is None else f"{tok}={nxt}")
    return out


def main(argv=None) -> int:
    # a malformed option value raises ArgumentError: a configuration error
    ap = argparse.ArgumentParser(prog="latticehk", exit_on_error=False,
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--report", help="write the JSON report here")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--window", type=_window,
                    help="override window, e.g. -12..14")
    ap.add_argument("--max-universe", type=int, default=None)
    ap.add_argument("--fail-fast", action="store_true")
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")

    demop = sub.add_parser("demo", help="run a curated bundle")
    demop.add_argument("name", choices=sorted(DEMOS))

    sub.add_parser("list-checks", help="print the check registry")

    geo = sub.add_parser("check-causality", help="geometry quick pass")
    geo.add_argument("--backend", choices=["plane", "cylinder"],
                     default="cylinder")

    sit = sub.add_parser("check-site", help="site quick pass")
    sit.add_argument("--backend", choices=["plane", "cylinder"],
                     default="cylinder")

    try:
        args = ap.parse_args(_join_window(sys.argv[1:] if argv is None
                                          else argv))
        if args.cmd == "list-checks":
            for cid in sorted(REGISTRY):
                print(f"{cid:45} expected={EXPECTED:5} "
                      f"claim={CLAIM_OF[cid]}")
            return 0
        if args.cmd == "run":
            with open(args.scenario) as fh:
                config = json.load(fh)
            # the overrides assume the file's blocks are objects
            validate_scenario(config)
        elif args.cmd == "demo":
            config = DEMOS[args.name]
        else:  # check-causality or check-site
            group = "causality." if args.cmd == "check-causality" else "site."
            # the spacetime and universe of the backend's curated bundle
            base = DEMOS["kg-descent" if args.backend == "cylinder"
                         else "appendix-geometry"]
            config = {k: base[k]
                      for k in ("schema", "seed", "spacetime", "universe")}
            config["checks"] = [cid for cid in sorted(REGISTRY)
                                if cid.startswith(group)]
            # the double-complement equality is expected to diverge on these
            # corpora (see the report's companion records)
            config["expect"] = {
                "causality.development-vs-double-complement": "fail"}
        report = run_scenario(_apply_overrides(config, args),
                              fail_fast=args.fail_fast)
    except ModelError as e:  # a bug, not bad input
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (argparse.ArgumentError, ScenarioError, GeometryError, SiteError,
            KgError, AqftError, FileNotFoundError,
            json.JSONDecodeError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except Exception:  # named by no clause above: a bug as well
        traceback.print_exc()
        return 3
    return _emit(report, args.report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
