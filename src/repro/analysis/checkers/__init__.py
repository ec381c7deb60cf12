"""The shipped checkers and their registry."""

from __future__ import annotations

from repro.analysis.base import Checker, ProgramChecker
from repro.analysis.checkers.api import ApiHygieneChecker
from repro.analysis.checkers.batch import BatchPlaneChecker
from repro.analysis.checkers.dtype import DtypeDisciplineChecker
from repro.analysis.checkers.hotpath import HotPathPrecomputeChecker
from repro.analysis.checkers.ingest import IngestMaterializeChecker
from repro.analysis.checkers.kernelseam import KernelSeamChecker
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.checkers.net import TransportSeamChecker
from repro.analysis.checkers.rng import RngHygieneChecker
from repro.analysis.checkers.taint import SecretTaintChecker


def build_checkers(rules: set[str] | None = None) -> list[Checker]:
    """Instantiate every per-file checker, optionally rule-filtered."""
    checkers: list[Checker] = [
        DtypeDisciplineChecker(),
        RngHygieneChecker(),
        ApiHygieneChecker(),
        TransportSeamChecker(),
        BatchPlaneChecker(),
        HotPathPrecomputeChecker(),
        IngestMaterializeChecker(),
        KernelSeamChecker(),
    ]
    return _filter(checkers, rules)


def build_program_checkers(
    rules: set[str] | None = None,
) -> list[ProgramChecker]:
    """Instantiate every whole-program checker, optionally filtered."""
    checkers: list[ProgramChecker] = [
        LockDisciplineChecker(),
        SecretTaintChecker(),
    ]
    return _filter(checkers, rules)


def _filter(checkers: list, rules: set[str] | None) -> list:
    if rules is None:
        return checkers
    return [
        checker
        for checker in checkers
        if any(spec.rule in rules for spec in checker.rules)
    ]


def all_rules() -> list:
    """Every RuleSpec across all checkers, in registry order."""
    specs = []
    for checker in build_checkers():
        specs.extend(checker.rules)
    for checker in build_program_checkers():
        specs.extend(checker.rules)
    return specs


__all__ = [
    "ApiHygieneChecker",
    "BatchPlaneChecker",
    "DtypeDisciplineChecker",
    "HotPathPrecomputeChecker",
    "IngestMaterializeChecker",
    "KernelSeamChecker",
    "LockDisciplineChecker",
    "RngHygieneChecker",
    "SecretTaintChecker",
    "TransportSeamChecker",
    "all_rules",
    "build_checkers",
    "build_program_checkers",
]
