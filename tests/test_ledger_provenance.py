"""Provenance chain: a drift-triggered retrain's published version must
link back to its triggering drift event — in the store ledger and over
``GET /v1/runs``."""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.ledger import Ledger
from repro.pipeline import (
    DriftConfig,
    PipelineConfig,
    PipelineController,
    RetrainConfig,
)
from repro.serve.store import ModelStore

WINDOW = 16


def _fast_config():
    return PipelineConfig(
        drift=DriftConfig(
            reference_window=4, test_window=2, smoothing_span=1,
            threshold=0.5, consecutive=2,
        ),
        retrain=RetrainConfig(
            min_windows=4, max_windows=64, max_attempts=2,
            backoff_base_seconds=0.01, seed=0,
        ),
        cooldown_seconds=0.0,
    )


def _seed_store(tmp_path):
    rng = np.random.default_rng(0)
    X = np.concatenate(
        [
            rng.normal(0.0, 0.3, size=(12, WINDOW)),
            rng.normal(4.0, 0.3, size=(12, WINDOW)),
        ]
    )
    y = np.repeat([0, 1], 12)
    model = NearestNeighborEuclidean().fit(X, y)
    store = ModelStore(tmp_path / "store")
    store.save(model, "nn", metadata={"spec": "1nn-ed"})
    return store


def _drive_drift(controller):
    for label, n in ((0, 6), (1, 4)):
        rng = np.random.default_rng(100 + label)
        for _ in range(n):
            window = rng.normal(4.0 * label, 0.3, size=WINDOW)
            controller.observe_tick("nn", 1, window, label, {str(label): 0.9})


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def drifted_store(tmp_path):
    """A store whose ledger holds a full drift -> publish chain."""
    store = _seed_store(tmp_path)
    controller = PipelineController(store, _fast_config())
    try:
        _drive_drift(controller)
        assert _wait(
            lambda: controller.status()["models"]["nn"]["retrains"]["succeeded"] == 1
        )
    finally:
        controller.close()
    yield store
    store.close_ledger()


class TestLedgerChain:
    def test_publish_row_links_to_drift_row(self, drifted_store):
        ledger = drifted_store.ledger
        drift = ledger.query().kind("drift").first()
        assert drift is not None
        assert drift.label == "nn"
        assert drift.metrics["score"] >= 0.5  # past the trigger threshold
        assert drift.meta["forced"] is False

        publishes = ledger.query().kind("publish").order_by("id").all()
        # v1 was the seed save (no parent); v2 is the retrain.
        retrained = [row for row in publishes if row.parent_id is not None]
        assert len(retrained) == 1
        assert retrained[0].parent_id == drift.id
        assert retrained[0].meta["version"] == 2
        assert retrained[0].meta["metadata"]["trigger"] == "drift"
        assert retrained[0].meta["metadata"]["source_windows"] >= 4
        assert retrained[0].seed == 0  # RetrainConfig.seed threaded through

    def test_chain_survives_reopen(self, drifted_store):
        path = drifted_store.root / "ledger.db"
        drifted_store.close_ledger()
        ledger = Ledger(path, create=False)
        try:
            publish = (
                ledger.query().kind("publish").order_by("id", descending=True).first()
            )
            assert publish.parent_id is not None
            assert ledger.get(publish.parent_id).kind == "drift"
        finally:
            ledger.close()


class TestRunsEndpoint:
    @pytest.fixture
    def served(self, drifted_store, serve):
        with serve(drifted_store, default_model="nn") as server:
            yield server.server_address[1]

    def _get(self, port, path):
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, response.read()

    def test_runs_row_links_published_model_to_drift_event(self, served):
        status, body = self._get(served, "/v1/runs")
        assert status == 200
        payload = json.loads(body)
        runs = {row["id"]: row for row in payload["runs"]}
        publish = next(
            row
            for row in payload["runs"]
            if row["kind"] == "publish" and row["parent_id"] is not None
        )
        trigger = runs[publish["parent_id"]]
        assert trigger["kind"] == "drift"
        assert trigger["label"] == publish["label"] == "nn"

    def test_ledger_metrics_exposed(self, served):
        status, body = self._get(served, "/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_ledger_available 1" in text
        assert "repro_ledger_rows" in text
        assert "repro_ledger_records_total" in text
        assert "repro_ledger_errors_total" in text
