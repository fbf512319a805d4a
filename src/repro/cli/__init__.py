"""Command-line interface.

Usage::

    python -m repro.cli study                 # run all sweeps + experiments
    python -m repro.cli study --store .study-store --scan-only
    python -m repro.cli analyze --store .study-store
    python -m repro.cli experiment fig3       # one experiment
    python -m repro.cli list                  # known experiments
    python -m repro.cli runs --store DIR      # stored-study registry
    python -m repro.cli diff KEY_A KEY_B --store DIR
    python -m repro.cli pack KEY --out bundle/ --store DIR
    python -m repro.cli dataset out.jsonl     # anonymized dataset release
    python -m repro.cli policies              # print Table 1
    python -m repro.cli scan --live --targets targets.txt \
        --contact you@lab.example             # live lab scan (gated)

The full study builds ~1900 hosts and scans them eight times; the
first invocation also generates the RSA key cache (several minutes).
With ``--store DIR`` (or ``REPRO_STUDY_STORE=DIR``), the sweeps are
persisted content-addressed under DIR and every later invocation —
``study``, ``experiment``, ``dataset``, ``analyze`` — loads them in
well under a second instead of re-scanning.  ``analyze`` never scans:
it runs the analysis registry straight off a stored study, and the
read-side verbs ``runs``/``diff``/``pack`` never scan either — they
enumerate, compare, and export stored studies through the
:class:`~repro.dataset.catalog.StudyCatalog`.

The package is one module per subcommand (each exposing
``register(commands)`` and its ``cmd_*`` handler) over the shared
option groups in :mod:`repro.cli.options`.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    analyze,
    dataset,
    diff,
    experiments,
    pack,
    policies,
    runs,
    scan,
    study,
)
from repro.cli.analyze import ANALYZE_CHOICES

__all__ = ["ANALYZE_CHOICES", "build_parser", "main"]

#: Subcommand modules in help order; each contributes one (or two)
#: parsers via ``register`` and binds its handler with set_defaults.
_SUBCOMMANDS = (
    study,
    experiments,
    analyze,
    runs,
    diff,
    pack,
    dataset,
    policies,
    scan,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Easing the Conscience with OPC UA' (IMC 2020)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for module in _SUBCOMMANDS:
        module.register(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.dataset.store import StoreIntegrityError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except StoreIntegrityError as exc:
        # A stale, tampered or malformed store entry is bad input, not
        # a bug: one line naming it and the remedy, as for a bad key.
        raise SystemExit(f"repro: error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
