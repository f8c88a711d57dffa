"""Selectable simulation backends for the core+cache inner loop.

Two backends execute a program on a hierarchy:

* ``reference`` — the pure-python cycle loop in
  :class:`repro.cpu.pipeline.OutOfOrderCore`. Always available, always
  correct; every other backend is defined by bit-identicality to it.
* ``fast`` — :class:`repro.cpu.fastcore.FastCore`: the compiled C core
  loop (:mod:`repro.cpu.ckernel`) over pre-decoded traces
  (:mod:`repro.isa.predecode`), with an event-driven clock and O(1)
  compressibility probes against a whole-image table
  (:mod:`repro.compression.comptable`). Replays the golden cells
  bit-for-bit and runs ``reference`` instead whenever the kernel cannot
  run a cell faithfully: no C compiler, or an observation hook (tracing,
  ``REPRO_CHECK`` audits, load verification, a warm predictor, the
  i-cache model).

Selection precedence: an explicit ``SimConfig.backend`` beats the
``REPRO_BACKEND`` environment variable, which beats the default
(``reference``). The environment variable is the cross-process channel —
:func:`set_default_backend` writes it so forked matrix workers inherit
the choice, mirroring how ``repro.check`` propagates REPRO_CHECK.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError, UsageError

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "create_core",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
]

#: Registered backend names, in documentation order.
BACKEND_NAMES = ("reference", "fast")

DEFAULT_BACKEND = "reference"

#: Environment variable naming the default backend for this process tree.
ENV_VAR = "REPRO_BACKEND"


def default_backend() -> str:
    """The backend selected by the environment (no per-config override).

    Raises :class:`~repro.errors.UsageError` when ``REPRO_BACKEND`` names
    an unknown backend — a typo must fail loudly, not silently fall back
    to the slow loop.
    """
    env = os.environ.get(ENV_VAR, "").strip()
    if not env:
        return DEFAULT_BACKEND
    if env not in BACKEND_NAMES:
        raise UsageError(
            f"unknown backend {env!r} in ${ENV_VAR}",
            argument=ENV_VAR,
            choices=BACKEND_NAMES,
        )
    return env


def resolve_backend(explicit: str = "") -> str:
    """Resolve the effective backend name.

    *explicit* is a per-config override (``SimConfig.backend``); empty
    means "defer to the environment".
    """
    if explicit:
        if explicit not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown simulation backend {explicit!r}; "
                f"choose from {BACKEND_NAMES}"
            )
        return explicit
    return default_backend()


def set_default_backend(name: str | None) -> None:
    """Set (or clear, with ``None``/empty) the process-default backend.

    Writes ``REPRO_BACKEND`` so worker processes forked later inherit
    the selection.
    """
    if not name:
        os.environ.pop(ENV_VAR, None)
        return
    if name not in BACKEND_NAMES:
        raise UsageError(
            f"unknown backend {name!r}",
            argument="backend",
            choices=BACKEND_NAMES,
        )
    os.environ[ENV_VAR] = name


def create_core(backend: str, hierarchy, core_config, *, verify_loads: bool = False):
    """Instantiate the core implementation for *backend* (a resolved name)."""
    if backend == "fast":
        from repro.cpu.fastcore import FastCore

        return FastCore(hierarchy, core_config, verify_loads=verify_loads)
    if backend == "reference":
        from repro.cpu.pipeline import OutOfOrderCore

        return OutOfOrderCore(hierarchy, core_config, verify_loads=verify_loads)
    raise ConfigurationError(
        f"unknown simulation backend {backend!r}; choose from {BACKEND_NAMES}"
    )
