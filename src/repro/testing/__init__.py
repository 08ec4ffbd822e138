"""Testing utilities shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness behind the orchestrator's recovery test suite (and usable by
downstream users who want to drill their own pipelines): seeded,
monkeypatch-style injectors for worker crashes, hung and transiently
failing solves, poison pairs and corrupt checkpoint and snapshot files.
"""

from .faults import (
    FakeClock,
    InjectionLog,
    bitflip_checkpoint,
    inject_poison_pairs,
    inject_transient_solver_error,
    inject_worker_crash,
    inject_worker_hang,
    match_first_row,
    tamper_payload,
    truncate_checkpoint,
)

__all__ = [
    "FakeClock",
    "InjectionLog",
    "bitflip_checkpoint",
    "inject_poison_pairs",
    "inject_transient_solver_error",
    "inject_worker_crash",
    "inject_worker_hang",
    "match_first_row",
    "tamper_payload",
    "truncate_checkpoint",
]
