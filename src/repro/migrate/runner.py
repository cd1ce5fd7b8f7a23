"""Migration execution: stepwise drive, verification, and rollback.

A :class:`MigrationJob` walks a :class:`~repro.migrate.plan.MigrationPlan`
one step at a time. Each step holds the enclave for at most one ecall-sized
critical section, so concurrent queries are never blocked longer than one
partition rotation or swap — the driver (``repro.net.server``) deliberately
runs migration verbs *off* the per-connection ecall lock, the same way bulk
load streams do, and relies on the enclave boundary lock plus the column's
shadow lock for correctness.

Verification (the ``tighten`` phase) never sees plaintext: the enclave
issues per-entry join tokens (``HMAC(k_salt, plaintext)`` under a fresh
salt) for the old and the shadow dictionary, and the untrusted runner
checks row-aligned token equality — the shadow build holds exactly the old
rows in the old order, or the job fails before anything is promoted.

A :class:`MigrationManager` owns job identity and the one-active-rotation-
per-column rule, and is what the DBMS front end drives.
"""

from __future__ import annotations

import threading

from repro.crypto.drbg import HmacDrbg
from repro.encdict.options import kind_by_name
from repro.exceptions import EncDBDBError, MigrationError
from repro.migrate.plan import MigrationPlan, MigrationStatus, MigrationStep
from repro.sgx.enclave import EnclaveHost


class MigrationJob:
    """One in-flight (or finished) column rotation."""

    def __init__(
        self,
        migration_id: int,
        plan: MigrationPlan,
        table,
        host: EnclaveHost,
        salt_rng: HmacDrbg,
    ) -> None:
        self.migration_id = migration_id
        self.plan = plan
        self._table = table
        self._host = host
        self._salt_rng = salt_rng
        self._lock = threading.RLock()
        #: Index of the next step to execute.
        self.position = 0  # guarded-by: self._lock
        self.state = "running"  # guarded-by: self._lock
        self.error = ""  # guarded-by: self._lock

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def advance(self, steps: int = 1) -> "MigrationStatus":
        """Execute up to ``steps`` plan steps; stops at completion or on the
        first failing step (which leaves the job ``failed`` and rollable)."""
        with self._lock:
            for _ in range(steps):
                if self.state != "running":
                    break
                step = self.plan.steps[self.position]
                try:
                    self._execute(step)
                except EncDBDBError as exc:
                    # Deferred import: repro.net.protocol imports this
                    # package, so the top level cannot.
                    from repro.net.errors import scrub_message

                    self.state = "failed"
                    # The error string crosses the wire inside typed
                    # MigrationStatus frames; scrub it like any error frame.
                    self.error = scrub_message(f"{step.phase}/{step.action}: {exc}")
                    break
                self.position += 1
                if self.position == len(self.plan.steps):
                    self.state = "done"
            return self.status()

    def run(self) -> "MigrationStatus":
        """Drive the job to completion (or to its first failure)."""
        with self._lock:
            while self.state == "running":
                self.advance()
            return self.status()

    def rollback(self) -> "MigrationStatus":
        """Undo every executed step in reverse order.

        Allowed while ``running`` (operator abort) or ``failed``; refused
        once ``adopt`` ran — the old versions are gone then, and the answer
        to "undo a finished rotation" is a new migration back.
        """
        with self._lock:
            if self.state == "done":
                raise MigrationError(
                    f"migration {self.migration_id} is finalized; "
                    "start a reverse migration instead"
                )
            if self.state == "rolled-back":
                return self.status()
            for index in range(self.position - 1, -1, -1):
                self._undo(self.plan.steps[index])
            self.position = 0
            self.state = "rolled-back"
            return self.status()

    def status(self) -> MigrationStatus:
        with self._lock:
            plan = self.plan
            if self.state == "done":
                phase = "finalize"
            else:
                cursor = min(self.position, len(plan.steps) - 1)
                phase = plan.steps[cursor].phase
            try:
                versions = self._column().partition_versions()
            except EncDBDBError:
                versions = []
            return MigrationStatus(
                migration_id=self.migration_id,
                table=plan.table,
                column=plan.column,
                old_kind=plan.old_kind,
                new_kind=plan.new_kind,
                old_key_epoch=plan.old_key_epoch,
                new_key_epoch=plan.new_key_epoch,
                state=self.state,
                phase=phase,
                steps_total=len(plan.steps),
                steps_done=self.position,
                partition_versions=versions,
                error=self.error,
            )

    # ------------------------------------------------------------------
    # Step implementations
    # ------------------------------------------------------------------
    def _column(self):
        return self._table.column(self.plan.column)

    def _execute(self, step: MigrationStep) -> None:
        getattr(self, "_do_" + step.action.replace("-", "_"))(step)

    def _undo(self, step: MigrationStep) -> None:
        getattr(self, "_undo_" + step.action.replace("-", "_"))(step)

    def _do_open_shadow(self, step: MigrationStep) -> None:
        self._column().begin_shadow(self.plan.new_kind, self.plan.new_key_epoch)

    def _undo_open_shadow(self, step: MigrationStep) -> None:
        self._column().clear_shadow()

    def _do_rotate(self, step: MigrationStep) -> None:
        column = self._column()
        spec = self._table.spec(self.plan.column)
        build = column.partition_builds[step.partition_index]
        rotated = self._host.ecall(
            "rotate_partition",
            build.dictionary,
            build.attribute_vector,
            new_kind=kind_by_name(self.plan.new_kind),
            key_epoch=self.plan.new_key_epoch,
            partition_index=step.partition_index,
            bsmax=spec.bsmax,
        )
        column.install_shadow(step.partition_index, rotated)

    def _undo_rotate(self, step: MigrationStep) -> None:
        self._column().uninstall_shadow(step.partition_index)

    def _do_verify(self, step: MigrationStep) -> None:
        """Row-aligned join-token equality of old vs. shadow partition."""
        column = self._column()
        shadow = column.shadow
        if shadow is None:
            raise MigrationError("verify without an open shadow")
        old = column.partition_builds[step.partition_index]
        new = shadow.builds[step.partition_index]
        if new is None:
            raise MigrationError(
                f"partition {step.partition_index} has no shadow build to verify"
            )
        salt = self._salt_rng.random_bytes(32)
        tokens_old = self._host.ecall("join_tokens", old.dictionary, salt)
        tokens_new = self._host.ecall("join_tokens", new.dictionary, salt)
        av_old = old.attribute_vector
        av_new = new.attribute_vector
        for row in range(len(av_old)):
            if tokens_old[int(av_old[row])] != tokens_new[int(av_new[row])]:
                raise MigrationError(
                    f"partition {step.partition_index} row {row}: rotated "
                    "value does not match the original"
                )

    def _undo_verify(self, step: MigrationStep) -> None:
        pass  # verification has no side effects

    def _do_swap(self, step: MigrationStep) -> None:
        self._column().swap_shadow(step.partition_index)

    def _undo_swap(self, step: MigrationStep) -> None:
        self._column().unswap_shadow(step.partition_index)

    def _do_flip(self, step: MigrationStep) -> None:
        """Atomic key-rotation finalize: partitions, delta and epoch move
        together under the column's rotation lock, with the delta re-sealed
        by the ``reseal_delta`` ecall inside the same critical section (an
        INSERT holds the same lock for its whole statement, so none can
        straddle it)."""
        column = self._column()
        plan = self.plan
        with column.rotation_lock():
            resealed = self._host.ecall(
                "reseal_delta",
                plan.table,
                plan.column,
                list(column.delta_blobs),
                from_epoch=plan.old_key_epoch,
                to_epoch=plan.new_key_epoch,
            )
            column.flip_shadow(resealed)

    def _undo_flip(self, step: MigrationStep) -> None:
        """Post-flip inserts are sealed under the new epoch; re-seal that
        suffix back to the old epoch so the restored column stays
        epoch-uniform."""
        column = self._column()
        plan = self.plan
        with column.rotation_lock():
            shadow = column.shadow
            if shadow is None or not shadow.flipped:
                return
            suffix = list(column.delta_blobs[len(shadow.old_delta):])
            resealed = self._host.ecall(
                "reseal_delta",
                plan.table,
                plan.column,
                suffix,
                from_epoch=plan.new_key_epoch,
                to_epoch=plan.old_key_epoch,
            )
            column.unflip_shadow(list(shadow.old_delta) + resealed)

    def _do_adopt(self, step: MigrationStep) -> None:
        """Point of no return: the catalog spec takes the new kind/epoch and
        the dual-version state is dropped."""
        column = self._column()
        plan = self.plan
        with column.rotation_lock():
            spec = self._table.spec(plan.column)
            # ColumnSpec is shared between table.specs and column.spec, so
            # mutating in place updates every view of the schema at once.
            spec.adopt_protection(kind_by_name(plan.new_kind), plan.new_key_epoch)
            column.set_key_epoch(plan.new_key_epoch)
            column.clear_shadow()

    def _undo_adopt(self, step: MigrationStep) -> None:
        raise MigrationError("a finalized migration cannot be rolled back")


class MigrationManager:
    """Owns migration identity and the one-rotation-per-column rule."""

    def __init__(self, catalog, host: EnclaveHost, salt_rng: HmacDrbg | None = None) -> None:
        self._catalog = catalog
        self._host = host
        self._salt_rng = (
            salt_rng if salt_rng is not None else HmacDrbg(b"EncDBDB-migration-salts")
        )
        self._lock = threading.RLock()
        self._next_id = 1  # guarded-by: self._lock
        # Active jobs keyed by (table, column); final statuses of retired jobs.
        self._jobs: dict[tuple[str, str], MigrationJob] = {}  # guarded-by: self._lock
        self._history: list[MigrationStatus] = []  # guarded-by: self._lock

    # ------------------------------------------------------------------
    def start(
        self,
        table_name: str,
        column_name: str,
        *,
        new_kind: str | None = None,
        rotate_key: bool = False,
    ) -> MigrationStatus:
        """Plan and register a rotation of ``table.column`` to ``new_kind``
        (default: keep the kind) and/or the next key epoch."""
        table = self._catalog.table(table_name)
        spec = table.spec(column_name)
        if not spec.is_encrypted:
            raise MigrationError(
                f"{table_name}.{column_name} is plaintext; nothing to rotate"
            )
        column = table.column(column_name)
        target_kind = new_kind if new_kind is not None else spec.protection.name
        kind_by_name(target_kind)  # raises for unknown names
        old_epoch = column.key_epoch
        plan = MigrationPlan.for_rotation(
            table_name,
            column_name,
            old_kind=spec.protection.name,
            new_kind=target_kind,
            old_key_epoch=old_epoch,
            new_key_epoch=old_epoch + 1 if rotate_key else old_epoch,
            partition_count=len(column.partition_builds),
        )
        with self._lock:
            key = (table_name, column_name)
            if key in self._jobs:
                raise MigrationError(
                    f"{table_name}.{column_name} already has migration "
                    f"{self._jobs[key].migration_id} in flight"
                )
            job = MigrationJob(
                self._next_id, plan, table, self._host, self._salt_rng
            )
            self._next_id += 1
            self._jobs[key] = job
        return job.status()

    def _job(self, table_name: str, column_name: str) -> MigrationJob:
        with self._lock:
            job = self._jobs.get((table_name, column_name))
        if job is None:
            raise MigrationError(
                f"{table_name}.{column_name} has no migration in flight"
            )
        return job

    def _retire_if_final(self, job: MigrationJob) -> None:
        with self._lock:
            if job.state in ("done", "rolled-back"):
                key = (job.plan.table, job.plan.column)
                if self._jobs.get(key) is job:
                    del self._jobs[key]
                    self._history.append(job.status())

    def step(self, table_name: str, column_name: str, steps: int = 1) -> MigrationStatus:
        job = self._job(table_name, column_name)
        status = job.advance(int(steps))
        self._retire_if_final(job)
        return status

    def run(self, table_name: str, column_name: str) -> MigrationStatus:
        job = self._job(table_name, column_name)
        status = job.run()
        self._retire_if_final(job)
        return status

    def rollback(self, table_name: str, column_name: str) -> MigrationStatus:
        job = self._job(table_name, column_name)
        status = job.rollback()
        self._retire_if_final(job)
        return status

    def status(
        self, table_name: str | None = None, column_name: str | None = None
    ) -> list[MigrationStatus]:
        """Active jobs first (id order), then retired history, optionally
        filtered to one table / column."""
        with self._lock:
            statuses = [
                job.status()
                for job in sorted(self._jobs.values(), key=lambda j: j.migration_id)
            ]
            statuses.extend(self._history)
        if table_name is not None:
            statuses = [s for s in statuses if s.table == table_name]
        if column_name is not None:
            statuses = [s for s in statuses if s.column == column_name]
        return statuses

    def active_tables(self) -> set[str]:
        """Tables with a rotation in flight (merge/save must wait)."""
        with self._lock:
            return {table for table, _ in self._jobs}

    @property
    def any_active(self) -> bool:
        with self._lock:
            return bool(self._jobs)
