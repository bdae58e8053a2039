"""Flags shared by ``repro-run`` and ``repro-experiments``.

The two CLIs grew separately and their spellings drifted; this module is
the single place each shared flag is declared, so they cannot drift
again.
"""

from __future__ import annotations

import argparse


def add_observability_args(parser: argparse.ArgumentParser) -> None:
    """``--trace-out`` / ``--trace-events`` / ``--decision-trace`` /
    ``--progress`` for the CLIs."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome-trace timeline of the whole invocation "
        "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--trace-events",
        default=None,
        metavar="FILE",
        help="stream finished spans to FILE as JSONL, one object per span",
    )
    parser.add_argument(
        "--decision-trace",
        default=None,
        metavar="FILE",
        help="stream per-iteration offload decision records to FILE as "
        "JSONL (disaggregated-ndp iterations only)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live per-iteration progress to stderr",
    )


def parse_policy_spec(text: str):
    """argparse ``type=`` hook for ``--policy name:key=val,key=val``.

    Delegates to :meth:`repro.api.PolicySpec.parse` (the one grammar shared
    with serve request bodies) and converts :class:`ConfigError` — unknown
    name with did-you-mean, malformed params — into the
    ``ArgumentTypeError`` argparse expects.
    """
    from repro.api import PolicySpec
    from repro.errors import ConfigError

    try:
        return PolicySpec.parse(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def add_policy_arg(parser: argparse.ArgumentParser, *, default=None) -> None:
    """Shared ``--policy name:key=val,key=val`` flag (typed PolicySpec)."""
    parser.add_argument(
        "--policy",
        type=parse_policy_spec,
        default=default,
        metavar="NAME[:K=V,...]",
        help="offload policy for disaggregated-ndp, e.g. 'adaptive', "
        "'threshold:min_avg_degree=2.0' (see repro.runtime.offload)",
    )


def add_jobs_arg(parser: argparse.ArgumentParser, *, default: int = 1) -> None:
    """``--jobs`` for both CLIs."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=default,
        metavar="N",
        help="worker processes for multi-workload execution "
        "(single-workload runs are serial regardless)",
    )


def add_fault_seed_arg(parser: argparse.ArgumentParser) -> None:
    """``--fault-seed`` for both CLIs."""
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="expand the standard probabilistic fault schedule (crashes, "
        "NDP failures, link degradation, message drops) from this seed",
    )
