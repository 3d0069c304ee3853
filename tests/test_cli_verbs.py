"""Registry-driven CLI verbs: list-models, run, fit, predict."""

import json
import os

import pytest

from repro.__main__ import main


@pytest.fixture
def sandbox(monkeypatch, tmp_path):
    """Isolated results dir; no REPRO_* leakage either way."""
    for name in (
        "REPRO_DATASETS",
        "REPRO_MAX_DATASETS",
        "REPRO_JOBS",
        "REPRO_RESULTS_DIR",
        "REPRO_FULL_GRID",
    ):
        monkeypatch.delenv(name, raising=False)
    return tmp_path


class TestListModels:
    def test_lists_every_registered_component(self, capsys, sandbox):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        for name in ("mvg", "mvg-stacking", "boss", "sax-vsm", "1nn-dtw", "znorm"):
            assert name in out
        assert "A,B,C,D,E,F,G" in out  # the heuristic-column variants

    def test_kind_filter(self, capsys, sandbox):
        assert main(["list-models", "--kind", "mapper"]) == 0
        out = capsys.readouterr().out
        assert "znorm" in out
        assert "boss" not in out


class TestRunVerb:
    def test_run_baseline(self, capsys, sandbox):
        code = main(
            [
                "run",
                "--model",
                "1nn-ed",
                "--dataset",
                "BeetleFly",
                "--results-dir",
                str(sandbox),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model:    1nn-ed" in out
        assert "error:" in out

    def test_run_does_not_mutate_environ(self, capsys, sandbox):
        before = dict(os.environ)
        main(
            [
                "run",
                "--model",
                "1nn-ed",
                "--dataset",
                "BeetleFly",
                "--jobs",
                "2",
                "--results-dir",
                str(sandbox),
            ]
        )
        assert dict(os.environ) == before

    def test_unknown_model_is_a_clean_error(self, sandbox):
        with pytest.raises(SystemExit, match="unknown component"):
            main(["run", "--model", "nope", "--dataset", "BeetleFly"])

    def test_feature_space_classifier_rejected_on_raw_series(self, sandbox):
        with pytest.raises(SystemExit, match="already-extracted features"):
            main(["run", "--model", "logreg", "--dataset", "BeetleFly"])

    def test_unknown_dataset_is_a_clean_error(self, sandbox):
        with pytest.raises(SystemExit, match="[Uu]nknown"):
            main(["run", "--model", "1nn-ed", "--dataset", "NotReal"])

    def test_sweep_only_flags_rejected_on_run(self, sandbox, capsys):
        # --datasets/--max-datasets/--force steer sweeps, not the
        # single-dataset verbs; accepting-and-ignoring them would lie.
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--model",
                    "1nn-ed",
                    "--dataset",
                    "BeetleFly",
                    "--datasets",
                    "Wine",
                ]
            )

    def test_bad_jobs_rejected(self, sandbox):
        with pytest.raises(SystemExit, match="positive"):
            main(
                [
                    "run",
                    "--model",
                    "1nn-ed",
                    "--dataset",
                    "BeetleFly",
                    "--jobs",
                    "0",
                ]
            )

    def test_run_mvg_matches_table2_cache(self, capsys, sandbox):
        """`run --model mvg:<col>` reproduces the committed sweep exactly."""
        with open(os.path.join("results", "table2.json")) as handle:
            cached = json.load(handle)
        index = cached["datasets"].index("BeetleFly")
        expected = cached["errors"]["G"][index]
        code = main(
            [
                "run",
                "--model",
                "mvg:G",
                "--dataset",
                "BeetleFly",
                "--results-dir",
                str(sandbox),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"error:    {expected:.6g}" in out


class TestFitPredictRoundTrip:
    def test_fit_then_predict(self, capsys, sandbox):
        model_path = sandbox / "model.json"
        code = main(
            [
                "fit",
                "--model",
                "mvg:A",
                "--dataset",
                "BeetleFly",
                "--no-tune",
                "--out",
                str(model_path),
                "--results-dir",
                str(sandbox),
            ]
        )
        assert code == 0
        assert model_path.is_file()
        out = capsys.readouterr().out
        assert "saved to" in out

        code = main(
            [
                "predict",
                "--model-file",
                str(model_path),
                "--dataset",
                "BeetleFly",
                "--split",
                "test",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test error:" in out

    def test_fit_unpersistable_model_is_a_clean_error(self, sandbox):
        with pytest.raises(SystemExit, match="persist"):
            main(
                [
                    "fit",
                    "--model",
                    "sax-vsm",
                    "--dataset",
                    "BeetleFly",
                    "--out",
                    str(sandbox / "m.json"),
                    "--results-dir",
                    str(sandbox),
                ]
            )

    def test_predict_rejects_tuning_flags(self, sandbox):
        with pytest.raises(SystemExit):
            main(
                [
                    "predict",
                    "--model-file",
                    str(sandbox / "m.json"),
                    "--dataset",
                    "BeetleFly",
                    "--full-grid",
                ]
            )

    def test_predict_missing_file_is_a_clean_error(self, sandbox):
        with pytest.raises(SystemExit, match="cannot load model"):
            main(
                [
                    "predict",
                    "--model-file",
                    str(sandbox / "missing.json"),
                    "--dataset",
                    "BeetleFly",
                ]
            )


class TestModelStoreVerbs:
    def _fit_into_store(self, sandbox, name="beetle"):
        return main(
            [
                "fit",
                "--model",
                "mvg:A",
                "--dataset",
                "BeetleFly",
                "--no-tune",
                "--store",
                str(sandbox / "store"),
                "--name",
                name,
                "--results-dir",
                str(sandbox),
            ]
        )

    def test_fit_into_store_then_list(self, capsys, sandbox):
        assert self._fit_into_store(sandbox) == 0
        out = capsys.readouterr().out
        assert "stored as beetle v1" in out

        assert main(["models", "--store", str(sandbox / "store")]) == 0
        out = capsys.readouterr().out
        assert "beetle" in out
        assert "v1 (latest)" in out
        assert "BeetleFly" in out  # metadata column

    def test_stream_verb_local_matches_offline_predict(self, capsys, sandbox):
        assert self._fit_into_store(sandbox) == 0
        capsys.readouterr()
        from repro.data.archive import load_archive_dataset
        from repro.serve import ModelStore

        split = load_archive_dataset("BeetleFly")
        code = main(
            [
                "stream",
                "--store",
                str(sandbox / "store"),
                "--window",
                str(split.test.length),
                "--dataset",
                "BeetleFly",
                "--index",
                "2",
            ]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 1  # one tick: the window fills exactly once
        offset, label, scores = out_lines[0].split("\t")
        assert int(offset) == split.test.length
        offline = ModelStore(sandbox / "store").load("beetle").predict(
            split.test.X[2][None, :]
        )[0]
        assert int(label) == offline
        assert set(json.loads(scores)) == {"0", "1"}

    def test_stream_verb_reads_stdin(self, capsys, sandbox, monkeypatch):
        import io

        assert self._fit_into_store(sandbox) == 0
        capsys.readouterr()
        from repro.data.archive import load_archive_dataset

        split = load_archive_dataset("BeetleFly")
        text = " ".join(str(v) for v in split.test.X[0])
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(
            [
                "stream",
                "--store",
                str(sandbox / "store"),
                "--window",
                str(split.test.length),
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_stream_verb_rejects_bad_invocations(self, sandbox):
        with pytest.raises(SystemExit):
            # --store and --url are mutually exclusive (argparse exits 2).
            main(
                [
                    "stream",
                    "--store",
                    "x",
                    "--url",
                    "http://localhost:1",
                    "--window",
                    "16",
                ]
            )
        with pytest.raises(SystemExit, match="empty|no model"):
            main(
                [
                    "stream",
                    "--store",
                    str(sandbox / "missing-store"),
                    "--window",
                    "16",
                    "--dataset",
                    "BeetleFly",
                ]
            )

    def test_stream_verb_stdin_rejects_garbage(self, sandbox, monkeypatch, capsys):
        import io

        assert self._fit_into_store(sandbox) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0 nope 2.0"))
        with pytest.raises(SystemExit, match="not a number"):
            main(["stream", "--store", str(sandbox / "store"), "--window", "128"])

    def test_fit_needs_a_destination(self, sandbox):
        with pytest.raises(SystemExit, match="destination"):
            main(["fit", "--model", "mvg:A", "--dataset", "BeetleFly", "--no-tune"])

    def test_fit_rejects_bad_store_name_before_fitting(self, sandbox):
        # Name validation must preflight — a grid-searched fit can take
        # minutes and would otherwise be discarded.
        with pytest.raises(SystemExit, match="invalid model name"):
            main(
                [
                    "fit",
                    "--model",
                    "mvg:A",
                    "--dataset",
                    "BeetleFly",
                    "--store",
                    str(sandbox / "store"),
                    "--name",
                    "Bad Name",
                    "--results-dir",
                    str(sandbox),
                ]
            )
        assert not (sandbox / "store").exists()

    def test_fit_store_needs_name(self, sandbox):
        with pytest.raises(SystemExit, match="--name"):
            main(
                [
                    "fit",
                    "--model",
                    "mvg:A",
                    "--dataset",
                    "BeetleFly",
                    "--no-tune",
                    "--store",
                    str(sandbox / "store"),
                ]
            )

    def test_models_delete(self, capsys, sandbox):
        self._fit_into_store(sandbox)
        capsys.readouterr()
        assert main(["models", "--store", str(sandbox / "store"), "--delete", "beetle"]) == 0
        assert "deleted" in capsys.readouterr().out
        assert main(["models", "--store", str(sandbox / "store")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_models_delete_unknown_is_clean_error(self, sandbox):
        self._fit_into_store(sandbox)
        with pytest.raises(SystemExit, match="no model named"):
            main(["models", "--store", str(sandbox / "store"), "--delete", "ghost"])

    def test_serve_refuses_empty_store(self, sandbox):
        with pytest.raises(SystemExit, match="empty"):
            main(["serve", "--store", str(sandbox / "nothing")])

    def test_serve_refuses_unknown_default_model(self, sandbox):
        self._fit_into_store(sandbox)
        with pytest.raises(SystemExit, match="no model named"):
            main(
                [
                    "serve",
                    "--store",
                    str(sandbox / "store"),
                    "--model",
                    "ghost",
                    "--port",
                    "0",
                ]
            )

    def test_predict_from_store_saved_file_matches(self, capsys, sandbox):
        """fit --out and fit --store persist the same model."""
        model_path = sandbox / "model.json"
        code = main(
            [
                "fit",
                "--model",
                "mvg:A",
                "--dataset",
                "BeetleFly",
                "--no-tune",
                "--out",
                str(model_path),
                "--store",
                str(sandbox / "store"),
                "--name",
                "beetle",
                "--results-dir",
                str(sandbox),
            ]
        )
        assert code == 0
        capsys.readouterr()

        from repro.data.archive import load_archive_dataset
        from repro.ml.persistence import load_model
        from repro.serve import ModelStore

        split = load_archive_dataset("BeetleFly")
        from_file = load_model(model_path).predict(split.test.X)
        from_store = ModelStore(sandbox / "store").load("beetle").predict(split.test.X)
        assert list(from_file) == list(from_store)


class TestLegacyCommandsStillWork:
    def test_artifact_commands_enumerated(self):
        from repro.__main__ import ALL_COMMANDS

        assert len(ALL_COMMANDS) == 11

    def test_fig2_with_explicit_flags(self, capsys, sandbox):
        code = main(["fig2", "--results-dir", str(sandbox)])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out


class TestStreamRetry:
    """Remote-mode retry: transient errors back off and retry, client
    errors exit immediately, exhaustion gives up with the last error."""

    @staticmethod
    def _response(payload):
        import io

        class _Resp(io.BytesIO):
            status = 200

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        return _Resp(json.dumps(payload).encode())

    @staticmethod
    def _http_error(code, detail=b"boom"):
        import io
        import urllib.error

        return urllib.error.HTTPError(
            "http://x/v1/stream", code, "err", {}, io.BytesIO(detail)
        )

    def _patch_sleep(self, monkeypatch):
        import repro.__main__ as cli

        slept = []
        monkeypatch.setattr(cli.time, "sleep", slept.append)
        return slept

    def test_transient_failures_are_retried_with_backoff(
        self, monkeypatch, capsys
    ):
        import random
        import urllib.error

        from repro.__main__ import _post_json_retrying

        slept = self._patch_sleep(monkeypatch)
        calls = []

        def urlopen(request, timeout):
            calls.append(request)
            if len(calls) == 1:
                raise urllib.error.URLError("connection refused")
            if len(calls) == 2:
                raise self._http_error(503)
            return self._response({"ok": True})

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        result = _post_json_retrying(
            "http://x/v1/stream", {"op": "status"}, attempts=5, rng=random.Random(0)
        )
        assert result == {"ok": True}
        assert len(calls) == 3
        assert len(slept) == 2
        assert 0 < slept[0] <= 0.2 * 1.25
        assert slept[1] > slept[0]  # exponential growth under jitter
        err = capsys.readouterr().err
        assert err.count("# transient failure") == 2
        assert "503" in err

    def test_client_errors_exit_immediately(self, monkeypatch):
        import random

        from repro.__main__ import _post_json_retrying

        self._patch_sleep(monkeypatch)
        calls = []

        def urlopen(request, timeout):
            calls.append(request)
            raise self._http_error(400, b'{"error": "bad window"}')

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        with pytest.raises(SystemExit, match="server returned 400.*bad window"):
            _post_json_retrying(
                "http://x/v1/stream", {}, attempts=5, rng=random.Random(0)
            )
        assert len(calls) == 1  # no retry on the client's own fault

    def test_exhausted_attempts_give_up(self, monkeypatch):
        import random
        import urllib.error

        from repro.__main__ import _post_json_retrying

        slept = self._patch_sleep(monkeypatch)
        calls = []

        def urlopen(request, timeout):
            calls.append(request)
            raise urllib.error.URLError("down")

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        with pytest.raises(SystemExit, match=r"giving up after 3 attempt\(s\)"):
            _post_json_retrying(
                "http://x/v1/stream", {}, attempts=3, rng=random.Random(0)
            )
        assert len(calls) == 3
        assert len(slept) == 2  # no sleep after the final attempt

    def test_stream_url_mode_survives_a_transient_hiccup(
        self, monkeypatch, capsys
    ):
        import io
        import urllib.error

        self._patch_sleep(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4 5 6 7 8 9 10"))
        requests = []

        def urlopen(request, timeout):
            body = json.loads(request.data)
            requests.append(body["op"])
            if body["op"] == "create":
                return self._response(
                    {
                        "created": True,
                        "session": "s1",
                        "model": "nn",
                        "version": 1,
                        "window": 8,
                        "stride": 1,
                    }
                )
            if body["op"] == "append":
                if requests.count("append") == 1:
                    raise urllib.error.URLError("server hiccup")
                return self._response(
                    {
                        "results": [
                            {"offset": 8, "label": 1, "scores": {"1": 1.0}},
                            {"offset": 9, "label": 1, "scores": {"1": 1.0}},
                            {"offset": 10, "label": 0, "scores": {"0": 1.0}},
                        ],
                        "received": 10,
                        "filled": True,
                    }
                )
            return self._response({"closed": True})

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        code = main(["stream", "--url", "http://127.0.0.1:1", "--window", "8"])
        assert code == 0
        captured = capsys.readouterr()
        ticks = captured.out.strip().splitlines()
        assert len(ticks) == 3
        assert ticks[0].split("\t")[:2] == ["8", "1"]
        assert "# transient failure" in captured.err
        # create, failed append, retried append, close
        assert requests == ["create", "append", "append", "close"]


class TestServeStreamKnobs:
    def test_max_sessions_must_be_positive(self):
        with pytest.raises(SystemExit, match="max-sessions must be >= 1"):
            main(["serve", "--store", "unused", "--max-sessions", "0"])

    def test_stream_buffer_must_be_positive(self):
        with pytest.raises(SystemExit, match="stream-buffer must be >= 1"):
            main(["serve", "--store", "unused", "--stream-buffer", "0"])

    @pytest.mark.parametrize("loop, warned", [("threads", True), ("asyncio", False)])
    def test_deprecated_loop_flag_still_parses(self, capsys, loop, warned):
        with pytest.raises(SystemExit, match="max-sessions must be >= 1"):
            main(["serve", "--store", "unused", "--loop", loop, "--max-sessions", "0"])
        assert ("--loop threads is deprecated" in capsys.readouterr().err) is warned


class TestPipelineVerb:
    def test_requires_hot_reload(self):
        with pytest.raises(SystemExit, match="reload-interval must be > 0"):
            main(
                [
                    "pipeline",
                    "--store", "unused",
                    "--reload-interval", "0",
                ]
            )

    def test_bad_drift_knobs_exit_cleanly(self):
        with pytest.raises(SystemExit, match="threshold"):
            main(
                [
                    "pipeline",
                    "--store", "unused",
                    "--drift-threshold", "7",
                ]
            )
        with pytest.raises(SystemExit, match="min_windows"):
            main(
                [
                    "pipeline",
                    "--store", "unused",
                    "--max-windows", "4",
                    "--min-windows", "8",
                ]
            )
