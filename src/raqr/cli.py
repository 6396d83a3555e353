"""Command line: run named experiments, validate configs, list recipes.

Exit codes: 0 success, 1 recipe execution failure, 2 bad input (unparseable
or invalid config, a config the recipe cannot run, bad thread count).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import (
    ParseError,
    ValidationError,
    default_config_path,
    fingerprint,
    load_config,
)
from .recipes import RecipeError, check_recipe, list_recipes, run_recipe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raqr",
        description="Link-level simulation and design toolkit for "
                    "superheterodyne atomic receivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a recipe and write its artifacts")
    run.add_argument("recipe", help="recipe name; see `raqr list-recipes`")
    run.add_argument("--config", default=None,
                     help="YAML config; defaults to the packaged config "
                          "for the recipe")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out", default=None,
                     help="override the config output directory")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads, default 1")

    validate = sub.add_parser("validate", help="check a config and print its "
                                               "fingerprint")
    validate.add_argument("--config", required=True)

    sub.add_parser("list-recipes", help="print the recipe registry")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-recipes":
        for name in list_recipes():
            print(name)
        return 0

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
            if cfg.recipe is not None:
                check_recipe(cfg)
        except (ParseError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"ok fingerprint={fingerprint(cfg)}")
        return 0

    try:
        if args.threads < 1:
            raise ValidationError("threads", "must be >= 1")
        path = args.config or default_config_path(args.recipe)
        cfg = load_config(path, recipe=args.recipe, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        paths = run_recipe(cfg, threads=args.threads)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"fingerprint={fingerprint(cfg)}")
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
