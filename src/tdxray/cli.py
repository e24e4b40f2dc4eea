"""tdxray command line interface.

    tdxray <subcommand> [--config <path>] [--out <dir>] [--seed <int>]
    tdxray acceptance [--config <path>] [--only <module>]

Subcommands: forward, slice-check, reconstruct, stability-curve, beam,
dtn, identity-check, acceptance.  TDXRAY_THREADS caps data parallelism;
outputs are byte-identical regardless of its value.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, TdxrayError
from .harness.config import SCHEMAS, Key, load_config, validate
from .harness.runner import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tdxray", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key-value config file (section.key = value)")
        if name == "acceptance":
            # the criteria run at fixed seeds into temporary directories
            p.add_argument("--only", default=None,
                           help="restrict to one module's criteria")
        else:
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else {}
    except (OSError, ConfigInvalid) as exc:
        print(f"ERROR ConfigInvalid: {exc}", file=sys.stderr)
        return 2

    try:
        if args.subcommand != "acceptance":
            seed = cfg.pop("seed", 0)
            if args.seed is not None:       # the flag overrides the key
                seed = args.seed
            # numpy's generators take no negative seed
            return run(args.subcommand, cfg, args.out,
                       Key(0, int, 0).check("seed", seed))
        from .harness.acceptance import run_acceptance
        if args.only is not None:       # the flag overrides the key
            cfg["acceptance.only"] = args.only
        results = run_acceptance(
            only=validate("acceptance", cfg).get("acceptance.only"))
    except TdxrayError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
