"""Autonomous control plane: SLO-driven self-healing for the HPoP fleet.

See :mod:`repro.control.controller` for the decision engine,
:mod:`repro.control.rules` for the remediation rule factories, and
:mod:`repro.control.service` for the per-appliance agent.
"""

from repro.control.controller import (
    Controller,
    ControlRule,
    Proposal,
    Signal,
)
from repro.control.rules import (
    attic_migrate_rule,
    attic_probe_rule,
    attic_repair_rule,
    dcol_rotate_rule,
    nocdn_rerank_rule,
    reregister_rule,
)
from repro.control.service import ControlAgent

__all__ = [
    "Controller",
    "ControlRule",
    "Proposal",
    "Signal",
    "ControlAgent",
    "attic_migrate_rule",
    "attic_probe_rule",
    "attic_repair_rule",
    "dcol_rotate_rule",
    "nocdn_rerank_rule",
    "reregister_rule",
]
