"""The experiment ledger: one SQLite database of every run ever made.

``ledger.db`` (stdlib :mod:`sqlite3`, WAL mode, versioned schema with
migrations) records every run, sweep, fit, publish, drift event and
deletion as a row: config hash, :class:`~repro.api.config.RunConfig`
spec, dataset, seed, metrics, artifact path, wall time and parent-run
provenance.  Two ledgers exist by convention:

* ``<results-dir>/ledger.db`` — written by the sweep harness and the
  ``run``/``fit`` CLI verbs;
* ``<store>/ledger.db`` — written by :class:`~repro.serve.store.ModelStore`
  publishes/deletes and the pipeline's retrain executor, where a
  ``publish`` row's ``parent_id`` points at the ``drift`` row that
  triggered it.

Design points:

* **WAL mode** so a sweep process and a retrain publish can append to
  the same database simultaneously without losing rows (the JSON caches
  fundamentally could not).
* **Versioned schema** via ``PRAGMA user_version`` and an ordered
  migration list — an old ledger is upgraded in place on open.
* **Graceful degradation**: every *write* goes through
  :meth:`Ledger.record`, which converts any :class:`sqlite3.Error`
  (locked, corrupt, read-only filesystem) into a warning plus ``None``
  — a broken ledger must never crash a sweep or a serve loop.  *Reads*
  raise :class:`LedgerError` so callers that need data can tell.
* **FTS** (FTS5 when the interpreter's sqlite has it, transparent
  ``LIKE`` fallback otherwise) over the textual row fields.

The ``ledger-access`` rule of :mod:`repro.analysis` keeps this package
the only place in the tree that calls ``sqlite3.connect``.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.ledger.query import LedgerQuery

__all__ = [
    "Ledger",
    "LedgerError",
    "RunRow",
    "SCHEMA_VERSION",
    "config_fingerprint",
]


class LedgerError(Exception):
    """A ledger read failed or the database cannot be opened."""


#: Current schema version (``PRAGMA user_version``).
SCHEMA_VERSION = 2

#: Ordered migrations; version N's statements bring a version-(N-1)
#: database up to N.  Append-only — never edit a shipped entry.
MIGRATIONS: tuple[tuple[int, tuple[str, ...]], ...] = (
    (
        1,
        (
            """
            CREATE TABLE IF NOT EXISTS runs (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                kind TEXT NOT NULL,
                label TEXT NOT NULL DEFAULT '',
                model TEXT,
                dataset TEXT,
                seed INTEGER,
                config_hash TEXT,
                config_json TEXT,
                error REAL,
                accuracy REAL,
                metrics_json TEXT,
                artifact TEXT,
                wall_seconds REAL,
                parent_id INTEGER REFERENCES runs(id),
                meta_json TEXT,
                created_at TEXT NOT NULL
            )
            """,
            "CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs(kind)",
            "CREATE INDEX IF NOT EXISTS idx_runs_label ON runs(label)",
            "CREATE INDEX IF NOT EXISTS idx_runs_dataset ON runs(dataset)",
            "CREATE INDEX IF NOT EXISTS idx_runs_model_dataset ON runs(model, dataset)",
        ),
    ),
    (
        2,
        (
            # Provenance walks (publish -> drift) and config-identity
            # lookups arrived after v1 shipped; give them indexes.
            "CREATE INDEX IF NOT EXISTS idx_runs_parent ON runs(parent_id)",
            "CREATE INDEX IF NOT EXISTS idx_runs_config_hash ON runs(config_hash)",
        ),
    ),
)

#: Textual columns covered by FTS / the LIKE fallback.
FTS_COLUMNS = ("kind", "label", "model", "dataset", "config_hash", "artifact", "meta_json")


def config_fingerprint(settings: Mapping[str, Any]) -> str:
    """Short stable hash of a run's identifying settings.

    Canonical-JSON SHA-256, truncated to 12 hex chars — enough to join
    rows produced by the same configuration across sweeps and stores
    without carrying the full settings blob into every comparison.
    """
    canonical = json.dumps(
        {str(k): settings[k] for k in settings}, sort_keys=True, default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _dump(value: Any) -> str | None:
    if value is None:
        return None
    return json.dumps(value, sort_keys=True, default=str)


def _parse(raw: str | None) -> Any:
    if raw is None:
        return None
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, TypeError):
        return None


@dataclass(frozen=True)
class RunRow:
    """One ledger row, with the JSON columns decoded."""

    id: int
    kind: str
    label: str
    model: str | None
    dataset: str | None
    seed: int | None
    config_hash: str | None
    config: dict[str, Any] | None
    error: float | None
    accuracy: float | None
    metrics: dict[str, Any] | None
    artifact: str | None
    wall_seconds: float | None
    parent_id: int | None
    meta: dict[str, Any] | None = field(default=None)
    created_at: str = ""

    @classmethod
    def from_sql(cls, row: sqlite3.Row) -> "RunRow":
        return cls(
            id=int(row["id"]),
            kind=str(row["kind"]),
            label=str(row["label"] or ""),
            model=row["model"],
            dataset=row["dataset"],
            seed=row["seed"],
            config_hash=row["config_hash"],
            config=_parse(row["config_json"]),
            error=row["error"],
            accuracy=row["accuracy"],
            metrics=_parse(row["metrics_json"]),
            artifact=row["artifact"],
            wall_seconds=row["wall_seconds"],
            parent_id=row["parent_id"],
            meta=_parse(row["meta_json"]),
            created_at=str(row["created_at"] or ""),
        )

    def to_json(self) -> dict[str, Any]:
        """Stable JSON shape (CLI ``--format json`` and ``GET /v1/runs``)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "label": self.label,
            "model": self.model,
            "dataset": self.dataset,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "config": self.config,
            "error": self.error,
            "accuracy": self.accuracy,
            "metrics": self.metrics,
            "artifact": self.artifact,
            "wall_seconds": self.wall_seconds,
            "parent_id": self.parent_id,
            "meta": self.meta,
            "created_at": self.created_at,
        }


class Ledger:
    """Append-only run ledger over one ``ledger.db`` (see module docs).

    Safe for concurrent use from multiple threads of one process (an
    internal lock serialises connection access) and from multiple
    processes (WAL journal + busy timeout).  Rows are never updated or
    deleted — corrections are new rows (``delete``, ``gc``) — so
    readers never observe torn state.
    """

    _GUARDED_BY = {
        "_conn": "_lock",
        "records_": "_lock",
        "errors_": "_lock",
    }

    def __init__(
        self,
        path: str | Path,
        *,
        create: bool = True,
        timeout: float = 5.0,
    ):
        self.path = Path(path)
        self.timeout = float(timeout)
        self.fts_enabled = False
        self._lock = threading.Lock()
        self.records_ = 0
        self.errors_ = 0
        if not create and not self.path.is_file():
            raise LedgerError(f"no ledger at {self.path}")
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(
                str(self.path), timeout=self.timeout, check_same_thread=False
            )
            self._conn.row_factory = sqlite3.Row
            # On a file still in rollback-journal mode, SQLite refuses the
            # WAL switch at once ("database is locked", no busy handler)
            # while another connection holds a write lock: retry until
            # ``timeout`` runs out.
            deadline = time.monotonic() + self.timeout
            while True:
                try:
                    self._conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() >= deadline:
                        raise
                time.sleep(0.01)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
            self._migrate(self._conn)
            self.fts_enabled = self._init_fts(self._conn)
        except sqlite3.Error as exc:
            raise LedgerError(f"cannot open ledger {self.path}: {exc}") from None

    @classmethod
    def attach(
        cls,
        path: str | Path,
        *,
        create: bool = True,
        timeout: float = 5.0,
    ) -> "Ledger | None":
        """Open a ledger, degrading to ``None`` instead of raising.

        ``create=False`` on a missing file returns ``None`` silently (a
        read path probing for an optional ledger); any other failure —
        corrupt file, locked metadata, unwritable directory — warns once
        and returns ``None`` so the caller's real work continues.
        """
        if not create and not Path(path).is_file():
            return None
        try:
            return cls(path, create=create, timeout=timeout)
        except LedgerError as exc:
            warnings.warn(
                f"continuing without the run ledger: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    # -- schema ------------------------------------------------------------
    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Apply pending migrations (each version in one transaction)."""
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        for target, statements in MIGRATIONS:
            if target <= version:
                continue
            with conn:  # one transaction per version step
                for statement in statements:
                    conn.execute(statement)
                conn.execute(f"PRAGMA user_version={target}")

    def _init_fts(self, conn: sqlite3.Connection) -> bool:
        """Create the FTS5 side table + sync trigger when available."""
        columns = ", ".join(FTS_COLUMNS)
        try:
            with conn:
                conn.execute(
                    f"CREATE VIRTUAL TABLE IF NOT EXISTS runs_fts USING fts5("
                    f"{columns}, content='runs', content_rowid='id')"
                )
                conn.execute(
                    "CREATE TRIGGER IF NOT EXISTS runs_fts_sync "
                    "AFTER INSERT ON runs BEGIN "
                    f"INSERT INTO runs_fts(rowid, {columns}) "
                    f"VALUES (new.id, {', '.join('new.' + c for c in FTS_COLUMNS)}); "
                    "END"
                )
        except sqlite3.OperationalError:
            return False  # sqlite built without FTS5 — LIKE fallback
        return True

    # -- writes ------------------------------------------------------------
    def record(
        self,
        kind: str,
        *,
        label: str = "",
        model: str | None = None,
        dataset: str | None = None,
        seed: int | None = None,
        config_hash: str | None = None,
        config: Mapping[str, Any] | None = None,
        error: float | None = None,
        accuracy: float | None = None,
        metrics: Mapping[str, Any] | None = None,
        artifact: str | None = None,
        wall_seconds: float | None = None,
        parent: int | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> int | None:
        """Append one row; returns its id, or ``None`` on degradation.

        Any :class:`sqlite3.Error` (database locked past the busy
        timeout, corrupt file, full disk) is reported as a warning and
        counted in ``errors_`` — the caller's sweep/publish/serve path
        carries on without provenance rather than failing.
        """
        if error is not None and accuracy is None:
            accuracy = 1.0 - float(error)
        created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        try:
            with self._lock:
                cursor = self._conn.execute(
                    "INSERT INTO runs (kind, label, model, dataset, seed, "
                    "config_hash, config_json, error, accuracy, metrics_json, "
                    "artifact, wall_seconds, parent_id, meta_json, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        str(kind),
                        str(label or ""),
                        model,
                        dataset,
                        seed,
                        config_hash,
                        _dump(dict(config) if config is not None else None),
                        error,
                        accuracy,
                        _dump(dict(metrics) if metrics is not None else None),
                        artifact,
                        wall_seconds,
                        parent,
                        _dump(dict(meta) if meta is not None else None),
                        created,
                    ),
                )
                self._conn.commit()
                self.records_ += 1
                return int(cursor.lastrowid)
        except sqlite3.Error as exc:
            with self._lock:
                self.errors_ += 1
            warnings.warn(
                f"ledger write to {self.path} failed ({exc}); continuing "
                "without recording",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def record_sweep(
        self,
        name: str,
        payload: Mapping[str, Any],
        *,
        artifact: str | None = None,
        wall_seconds: float | None = None,
    ) -> int | None:
        """Record a finished sweep: one parent row plus one ``eval`` row
        per (dataset, method) cell of the payload's error matrix.

        The full payload is kept verbatim on the parent row (under
        ``meta["payload"]``), which is what lets :func:`cache-style
        <repro.experiments.harness.cache_load>` readers and
        ``summary.py`` answer from the ledger instead of re-walking
        ``results/*.json`` — and, unlike the JSON file, *every* sweep
        (each seed, each grid) stays queryable, not just the last one.
        """
        settings = dict(payload.get("settings") or {})
        datasets = list(payload.get("datasets") or [])
        seed = settings.get("seed")
        fingerprint = config_fingerprint({"sweep": name, **settings})
        parent = self.record(
            "sweep",
            label=name,
            seed=seed if isinstance(seed, int) else None,
            config_hash=fingerprint,
            config=settings,
            artifact=artifact,
            wall_seconds=wall_seconds,
            meta={"datasets": datasets, "payload": dict(payload)},
        )
        if parent is None:
            return None
        errors = payload.get("errors")
        if isinstance(errors, Mapping):
            for method, values in errors.items():
                for dataset, value in zip(datasets, values):
                    self.record(
                        "eval",
                        label=name,
                        model=str(method),
                        dataset=str(dataset),
                        seed=seed if isinstance(seed, int) else None,
                        config_hash=fingerprint,
                        error=float(value),
                        parent=parent,
                    )
        return parent

    # -- reads -------------------------------------------------------------
    def _select(self, sql: str, params: tuple = ()) -> list[RunRow]:
        """Run one SELECT under the lock, mapping rows to :class:`RunRow`."""
        try:
            with self._lock:
                rows = self._conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise LedgerError(f"ledger query on {self.path} failed: {exc}") from None
        return [RunRow.from_sql(row) for row in rows]

    def _select_value(self, sql: str, params: tuple = ()) -> Any:
        try:
            with self._lock:
                row = self._conn.execute(sql, params).fetchone()
        except sqlite3.Error as exc:
            raise LedgerError(f"ledger query on {self.path} failed: {exc}") from None
        return row[0] if row is not None else None

    def _select_column(self, sql: str, params: tuple = ()) -> list[Any]:
        try:
            with self._lock:
                rows = self._conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise LedgerError(f"ledger query on {self.path} failed: {exc}") from None
        return [row[0] for row in rows]

    def query(self) -> LedgerQuery:
        """A fluent query over the runs table::

            ledger.query().model("mvg:G").dataset("BeetleFly")\\
                  .order_by("accuracy").limit(10).all()
        """
        return LedgerQuery(self)

    def get(self, run_id: int) -> RunRow | None:
        rows = self._select("SELECT * FROM runs WHERE id = ?", (int(run_id),))
        return rows[0] if rows else None

    def search(self, text: str, limit: int = 50) -> list[RunRow]:
        """Full-text search over the textual row fields (newest first)."""
        return self.query().search(text).order_by("id", descending=True).limit(limit).all()

    def sweep_payload(self, name: str) -> dict[str, Any] | None:
        """The most recent sweep payload recorded under ``name``.

        Drop-in source for the JSON result caches: the payload round-
        trips through the ledger byte-identically (same ``json`` module
        both ways).
        """
        rows = self._select(
            "SELECT * FROM runs WHERE kind = 'sweep' AND label = ? "
            "ORDER BY id DESC LIMIT 1",
            (str(name),),
        )
        if not rows or not isinstance(rows[0].meta, dict):
            return None
        payload = rows[0].meta.get("payload")
        return payload if isinstance(payload, dict) else None

    def stats(self) -> dict[str, Any]:
        """Aggregate statistics over the whole ledger."""
        by_kind: dict[str, int] = {}
        try:
            with self._lock:
                kind_rows = self._conn.execute(
                    "SELECT kind, COUNT(*) AS n FROM runs GROUP BY kind ORDER BY kind"
                ).fetchall()
        except sqlite3.Error as exc:
            raise LedgerError(f"ledger query on {self.path} failed: {exc}") from None
        for row in kind_rows:
            by_kind[str(row["kind"])] = int(row["n"])
        best_rows = self._select(
            "SELECT * FROM runs WHERE error IS NOT NULL "
            "ORDER BY error ASC, id ASC LIMIT 1"
        )
        best = best_rows[0] if best_rows else None
        latest_rows = self._select("SELECT * FROM runs ORDER BY id DESC LIMIT 1")
        try:
            size_bytes = self.path.stat().st_size
        except OSError:
            size_bytes = 0
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "fts": self.fts_enabled,
            "size_bytes": size_bytes,
            "rows": sum(by_kind.values()),
            "by_kind": by_kind,
            "models": self._select_value(
                "SELECT COUNT(DISTINCT model) FROM runs WHERE model IS NOT NULL"
            ),
            "datasets": self._select_value(
                "SELECT COUNT(DISTINCT dataset) FROM runs WHERE dataset IS NOT NULL"
            ),
            "seeds": self._select_column(
                "SELECT DISTINCT seed FROM runs WHERE seed IS NOT NULL ORDER BY seed"
            ),
            "best": best.to_json() if best is not None else None,
            "latest": latest_rows[0].to_json() if latest_rows else None,
        }

    def counters(self) -> dict[str, int]:
        """This handle's write/error counters (for ``repro_ledger_*``)."""
        with self._lock:
            return {"records": self.records_, "errors": self.errors_}

    def row_count(self) -> int:
        return int(self._select_value("SELECT COUNT(*) FROM runs") or 0)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
