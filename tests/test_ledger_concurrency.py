"""Concurrent writers and degradation: the ledger under WAL must accept
a sweep process and a retrain publish appending simultaneously with zero
lost rows, and a corrupt or locked database must degrade to a warning —
never an exception that could take down a serve loop."""

import sqlite3
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.ledger import Ledger

SRC = str(Path(__file__).resolve().parents[1] / "src")

WRITER = """
import sys
from repro.ledger import Ledger

path, tag, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
ledger = Ledger(path, timeout=30.0)
for i in range(n):
    row = ledger.record("eval", label=tag, model=tag, seed=i, error=0.1)
    assert row is not None, f"{tag} lost row {i}"
ledger.close()
"""


class TestMultiProcessWriters:
    def test_sweep_and_publish_processes_lose_no_rows(self, tmp_path):
        """Two writer processes (a 'sweep' and a 'publish') interleave
        appends to one ledger.db; WAL + busy timeout must keep every row."""
        path = tmp_path / "ledger.db"
        rows_each = 40
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER, str(path), tag, str(rows_each)],
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
                stderr=subprocess.PIPE,
            )
            for tag in ("sweep-proc", "publish-proc")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        ledger = Ledger(path, create=False)
        try:
            assert ledger.row_count() == 2 * rows_each
            for tag in ("sweep-proc", "publish-proc"):
                assert ledger.query().label(tag).count() == rows_each
        finally:
            ledger.close()

    def test_open_waits_out_a_write_lock_on_a_fresh_file(self, tmp_path):
        """Another connection holds a write lock on a fresh (rollback
        journal) file.  SQLite refuses the WAL switch at once there,
        without calling the busy handler, so the open must keep retrying
        until the holder commits instead of failing."""
        path = tmp_path / "ledger.db"
        holder = sqlite3.connect(path, check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, holder.commit)
        release.start()
        try:
            ledger = Ledger(path, timeout=5)
            assert ledger.record("run", label="after-wait") is not None
            ledger.close()
        finally:
            release.join()
            holder.close()

    def test_threaded_writers_on_one_handle(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.db")
        errors = []

        def write(tag):
            try:
                for i in range(25):
                    assert ledger.record("run", label=tag, seed=i) is not None
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert ledger.row_count() == 100
        ledger.close()


class TestDegradation:
    def test_corrupt_file_attach_warns_and_returns_none(self, tmp_path):
        path = tmp_path / "ledger.db"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.warns(RuntimeWarning, match="continuing without"):
            assert Ledger.attach(path) is None

    def test_locked_database_write_warns_and_continues(self, tmp_path):
        path = tmp_path / "ledger.db"
        setup = Ledger(path)
        setup.record("run", label="before")
        setup.close()
        blocker = sqlite3.connect(path)
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            ledger = Ledger(path, timeout=0.05)
            with pytest.warns(RuntimeWarning, match="ledger write"):
                assert ledger.record("run", label="during") is None
            assert ledger.counters()["errors"] == 1
        finally:
            blocker.rollback()
            blocker.close()
        # Lock released: the same handle recovers without reopening.
        assert ledger.record("run", label="after") is not None
        ledger.close()

    def test_record_after_close_warns_not_raises(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.db")
        ledger.close()
        with pytest.warns(RuntimeWarning, match="ledger write"):
            assert ledger.record("run", label="late") is None

    def test_store_serve_paths_survive_broken_ledger(self, tmp_path):
        """A store whose ledger.db is garbage still publishes and
        deletes — the warning is the only trace (serve-loop contract)."""
        pytest.importorskip("numpy")
        import numpy as np

        from repro.baselines.nn import NearestNeighborEuclidean
        from repro.serve import ModelStore

        root = tmp_path / "store"
        root.mkdir()
        (root / "ledger.db").write_bytes(b"garbage" * 64)
        store = ModelStore(root)
        model = NearestNeighborEuclidean().fit(
            np.eye(4), np.array([0, 1, 0, 1])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            record = store.save(model, "m")
            assert record.version == 1
            store.delete("m")
        assert store.ledger is None
        store.close_ledger()
