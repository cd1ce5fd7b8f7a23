"""Online ED-kind and key rotation (``repro.migrate``).

EncDBDB's protection kinds are a per-column dial (paper §3): a deployment
may start a column at ED3 and later decide the frequency leakage is too
cheap, or a compliance clock may demand a fresh column key. This package
re-encrypts a *live* column — partition by partition, while queries keep
flowing — to a different encrypted-dictionary kind and/or a new key epoch.

The untrusted side only schedules: every re-encryption happens inside the
enclave (``rotate_partition`` / ``reseal_delta`` ecalls), so plaintext never
leaves the TCB and the migration engine never names key material. A
:class:`MigrationPlan` decomposes one rotation into phased, individually
reversible steps; a :class:`~repro.migrate.runner.MigrationJob` executes
them and can roll back any prefix.
"""

from repro.migrate.plan import MigrationPlan, MigrationStatus, MigrationStep
from repro.migrate.runner import MigrationJob, MigrationManager

__all__ = [
    "MigrationPlan",
    "MigrationStatus",
    "MigrationStep",
    "MigrationJob",
    "MigrationManager",
]
