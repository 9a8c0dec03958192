"""Fault injection: storage faults must be caught, process faults retried."""

import glob
import hashlib
import os
import random

import pytest

from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.tree import EncryptedTreeStorage
from repro.core.types import Operation
from repro.crypto.bucket_encryption import CounterBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import IntegrityError, StashOverflowError
from repro.faults import FAULT_KINDS, FaultInjector, chaos_kill_point
from repro.integrity.storage import IntegrityVerifiedStorage
from repro.runner import ExperimentRunner, ExperimentSpec, RetryPolicy


def _faulty_stack(injector_builder=None, seed=3):
    """Integrity-verified ORAM whose device storage may inject faults."""
    config = ORAMConfig(working_set_blocks=24)
    cipher = CounterBucketCipher(ProcessorKey(seed=1))
    device = EncryptedTreeStorage(config, cipher)
    injector = injector_builder(device) if injector_builder is not None else None
    storage = IntegrityVerifiedStorage(config, cipher, inner=injector)
    oram = PathORAM(config, storage=storage, rng=random.Random(seed))
    return oram, injector


def _run(oram, accesses=250):
    for i in range(accesses):
        oram.access(1 + i % 24, Operation.WRITE, data=bytes([i % 251]))


class TestFaultInjector:
    def test_no_faults_is_transparent(self):
        plain, _ = _faulty_stack()
        wrapped, injector = _faulty_stack(lambda device: FaultInjector(device))
        _run(plain)
        _run(wrapped)
        assert wrapped.stats.fingerprint() == plain.stats.fingerprint()
        assert injector.injected == [] and injector.pending == 0
        assert injector.read_ops > 0 and injector.write_ops > 0

    def test_no_faults_keeps_every_ciphertext_byte_and_root(self):
        # The injector sits on the one path write the integrity layer
        # makes, and passes its read-back through uncounted.
        digests = []
        for wrap in (None, FaultInjector):
            oram, injector = _faulty_stack(wrap)
            _run(oram)
            storage = oram.storage
            digest = hashlib.sha256()
            for index in range(oram.config.num_buckets):
                digest.update(storage.inner.raw_bucket(index) or b"-")
            digest.update(storage.authenticator.root_hash)
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]
        assert injector.write_ops == oram.stats.path_writes
        assert injector.read_ops == oram.stats.path_reads

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_faults": {10: "bit_flip"}},
            {"read_faults": {25: "stale_replay"}},
            {"write_faults": {12}},
        ],
        ids=["bit_flip", "stale_replay", "drop_write"],
    )
    def test_each_kind_raises_integrity_error(self, kwargs):
        oram, injector = _faulty_stack(lambda device: FaultInjector(device, **kwargs))
        with pytest.raises(IntegrityError):
            _run(oram)
        assert len(injector.injected) == 1
        assert injector.pending == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_sweep_every_fault_is_detected(self, seed):
        oram, injector = _faulty_stack(
            lambda device: FaultInjector.seeded(device, seed, num_faults=1, horizon=50)
        )
        with pytest.raises(IntegrityError):
            _run(oram, accesses=400)
        assert len(injector.injected) == 1
        assert injector.pending == 0

    def test_schedule_is_deterministic(self):
        logs = []
        for _ in range(2):
            oram, injector = _faulty_stack(
                lambda device: FaultInjector.seeded(device, 42, num_faults=1, horizon=40)
            )
            with pytest.raises(IntegrityError):
                _run(oram)
            logs.append(injector.injected)
        assert logs[0] == logs[1]

    def test_unknown_kind_rejected(self):
        config = ORAMConfig(working_set_blocks=24)
        cipher = CounterBucketCipher(ProcessorKey(seed=1))
        device = EncryptedTreeStorage(config, cipher)
        with pytest.raises(ValueError, match="unknown read fault kind"):
            FaultInjector(device, read_faults={3: "meteor_strike"})

    def test_fault_kinds_constant(self):
        assert set(FAULT_KINDS) == {"bit_flip", "stale_replay", "drop_write"}


def _killer_point(value, marker_dir, seed=0):
    """Dies (once) at a chaos kill point, then succeeds on retry."""
    if value == 3:
        chaos_kill_point(marker_dir, "worker")
    return value * 10


def _overflowing_point(value, counter_dir, seed=0):
    """Deterministic failure that also counts its execution attempts."""
    attempt = os.path.join(counter_dir, f"attempt-{value}-{os.getpid()}-{seed}")
    with open(f"{attempt}-{len(glob.glob(attempt + '*'))}", "w"):
        pass
    raise StashOverflowError("deterministic overflow")


def _flaky_point(value, marker_dir, seed=0):
    """Raises a transient OSError exactly once, then succeeds."""
    marker = os.path.join(marker_dir, f"flaky-{value}.marker")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value + 1000
    os.close(fd)
    raise OSError("transient hiccup")


class TestChaosRetry:
    def test_killed_worker_is_retried_and_grid_completes(self, tmp_path):
        specs = [
            ExperimentSpec(
                key=("kill", value),
                fn=_killer_point,
                kwargs={"value": value, "marker_dir": str(tmp_path)},
            )
            for value in range(8)
        ]
        results = ExperimentRunner(executor="process", max_workers=2).run(specs)
        assert [result.value for result in results] == [value * 10 for value in range(8)]
        assert all(result.ok for result in results)
        assert os.path.exists(tmp_path / "worker.marker")

    def test_deterministic_errors_are_never_retried(self, tmp_path):
        specs = [
            ExperimentSpec(
                key=("det", value),
                fn=_overflowing_point,
                kwargs={"value": value, "counter_dir": str(tmp_path)},
                seed=value,
            )
            for value in range(3)
        ]
        for executor in ("serial", "process"):
            for stale in tmp_path.iterdir():
                stale.unlink()
            results = ExperimentRunner(executor=executor, max_workers=2).run(specs)
            assert all(
                result.error_type == "StashOverflowError" and not result.ok
                for result in results
            )
            # Exactly one execution per point: attempt files never pile up.
            assert len(list(tmp_path.iterdir())) == 3

    def test_transient_in_function_errors_are_retried(self, tmp_path):
        for executor in ("serial", "process"):
            marker_dir = tmp_path / executor
            marker_dir.mkdir()
            specs = [
                ExperimentSpec(
                    key=("flaky", value),
                    fn=_flaky_point,
                    kwargs={"value": value, "marker_dir": str(marker_dir)},
                )
                for value in range(4)
            ]
            results = ExperimentRunner(executor=executor, max_workers=2).run(specs)
            assert [result.value for result in results] == [
                value + 1000 for value in range(4)
            ], executor

    def test_transient_retries_respect_the_attempt_budget(self, tmp_path):
        def always_fails(value, seed=0):
            raise OSError("never recovers")

        specs = [ExperimentSpec(key=1, fn=always_fails, kwargs={"value": 1})]
        result = ExperimentRunner(retry=RetryPolicy(max_attempts=1)).run(specs)[0]
        assert not result.ok and result.error_type == "OSError"

    def test_chaos_kill_point_is_one_shot(self, tmp_path):
        marker = tmp_path / "spot.marker"
        marker.touch()
        # Marker already exists: must return instead of exiting.
        assert chaos_kill_point(str(tmp_path), "spot") is False
