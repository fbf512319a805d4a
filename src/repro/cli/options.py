"""Shared option groups and argument plumbing for the CLI.

Every subcommand module composes its parser from these helpers, so a
flag spelled ``--store`` means the same thing — same help text, same
resolution rules — on every verb that takes it.  The helpers are
public API: downstream tools embedding the repro CLI can reuse them
to stay flag-compatible.
"""

from __future__ import annotations

import argparse

from repro.scanner.executor import EXECUTOR_NAMES, resolve_executor

#: Default study seed — the paper's last sweep date.
DEFAULT_SEED = 20200830


def add_seed(parser: argparse.ArgumentParser) -> None:
    """The full study option group: ``--seed`` + executor + store."""
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="study seed (default: 20200830, the paper's last sweep date)",
    )
    add_executor(parser)
    add_store(parser)


def add_executor(parser: argparse.ArgumentParser) -> None:
    """``--workers`` / ``--executor``: the scan-backend option group."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "scan workers per sweep (default: 1 for --executor serial, "
            "all CPUs for thread/process; >1 alone implies --executor "
            "process)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        help=(
            "scan backend: serial (default), thread, or process "
            "(results are identical; only wall-clock time changes)"
        ),
    )


def add_store(parser: argparse.ArgumentParser) -> None:
    """``--store`` / ``--no-store``: the study-store option group."""
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "study store directory (default: $REPRO_STUDY_STORE if set); "
            "studies are persisted there content-addressed and loaded "
            "instead of re-scanned"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="ignore any configured study store and always scan",
    )


def resolve_store(args):
    """The store the parsed arguments select, or ``None``.

    ``--no-store`` wins; otherwise ``--store DIR`` or the
    ``REPRO_STUDY_STORE`` environment variable via
    :func:`repro.dataset.store.resolve_store`.
    """
    from repro.dataset.store import resolve_store as _resolve

    if getattr(args, "no_store", False):
        return None
    return _resolve(getattr(args, "store", None))


def require_store(args, reason: str):
    """Resolve the store or exit with the one canonical hint.

    Every verb that cannot run storeless funnels through here, so the
    "pass --store DIR or set REPRO_STUDY_STORE" remedy is spelled
    exactly once.
    """
    store = resolve_store(args)
    if store is None:
        raise SystemExit(
            f"repro: error: {reason}; pass --store DIR or set "
            "REPRO_STUDY_STORE"
        )
    return store


def require_catalog(args, reason: str):
    """A :class:`~repro.dataset.catalog.StudyCatalog` over the
    required store (see :func:`require_store`)."""
    from repro.dataset.catalog import StudyCatalog

    return StudyCatalog(require_store(args, reason))


def executor_from_args(args) -> tuple[str, int]:
    """Resolve ``--executor``/``--workers`` into ``(name, workers)``."""
    try:
        return resolve_executor(args.executor, args.workers)
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")


def study_result(args):
    """The study the arguments describe: loaded from the store on a
    hit, scanned otherwise."""
    from repro.core.study import default_study_result

    executor, workers = executor_from_args(args)
    store = resolve_store(args)
    return default_study_result(args.seed, executor, workers, store=store)
