"""Espresso: Brewing Java For More Non-Volatility with Non-volatile Memory.

A from-scratch Python reproduction of Wu et al., ASPLOS 2018: a persistent
Java heap (PJH) with crash-consistent allocation and garbage collection, the
PJO persistent-object layer, and the baselines the paper evaluates against
(a PCJ-style persistent collections library and a JPA provider over an
H2-style SQL database), all running on a simulated NVM substrate.

Entry points:

* :func:`repro.open_heap` — *the* way in: create-or-load one heap as a
  context-managed session (``with repro.open_heap(dir, name, ...)``).
* :class:`repro.Espresso` — one "JVM" with the persistence extensions,
  configured only through ``config=`` :class:`repro.EspressoConfig`.
* :meth:`repro.fleet.FleetRouter.session` — the sharded multi-heap way in.
* :mod:`repro.pcj` — the Persistent Collections for Java baseline.
* :mod:`repro.jpa` / :mod:`repro.pjo` — coarse-grained persistence layers.
* :mod:`repro.bench` — harnesses regenerating every figure in the paper.
"""

from repro.api import Espresso, EspressoConfig, open_heap
from repro.core.safety import (PersistentTypeRegistry, SafetyLevel,
                               persistent_type)
from repro.obs import NULL_OBS, Observatory
from repro.runtime.klass import FieldDescriptor, FieldKind, Klass, field

__version__ = "1.0.0"

__all__ = [
    "Espresso",
    "EspressoConfig",
    "Observatory",
    "NULL_OBS",
    "FieldDescriptor",
    "FieldKind",
    "Klass",
    "PersistentTypeRegistry",
    "SafetyLevel",
    "field",
    "open_heap",
    "persistent_type",
    "__version__",
]
