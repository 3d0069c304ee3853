"""Command-line entry point: ``python -m repro <command>``.

Artifact commands map 1:1 onto the paper's tables and figures; the
estimator verbs drive the component registry (:mod:`repro.registry`):

=============  ==================================================
table2         heuristic validation (Table 2 + Wilcoxon footer)
table3         benchmark vs the five baselines (Table 3)
fig2..fig5     motif boxplots / heuristic scatter panels
fig6 fig7      critical-difference diagrams
fig8 fig9      MVG-vs-baseline scatter / runtime comparison
fig10          FordA feature-importance case study
all            run every artifact in order
datasets       list the surrogate archive with metadata
list-models    list every registered component by name
run            fit+evaluate any registered model on one dataset
fit            fit a model and save it (JSON file or model store)
predict        load a saved model and evaluate it on a split
serve          HTTP inference server over a model store
pipeline       serve + closed-loop drift detection and retraining
stream         sliding-window streaming classification (local/remote)
models         list / delete model-store entries
db             query / stats / gc over the experiment ledger
=============  ==================================================

Examples::

    python -m repro run --model mvg:G --dataset BeetleFly
    python -m repro fit --model mvg:A --dataset Wine --out wine.json
    python -m repro predict --model-file wine.json --dataset Wine
    python -m repro fit --model mvg:A --dataset Wine --store models/ --name wine
    python -m repro serve --store models/ --port 8765
    python -m repro pipeline --store models/ --port 8765 --min-windows 48
    python -m repro stream --store models/ --window 128 --dataset Wine
    python -m repro stream --url http://127.0.0.1:8765 --window 128 < points.txt
    python -m repro models --store models/
    python -m repro db query --dataset BeetleFly --order-by error
    python -m repro db stats --store models/
    python -m repro db gc --store models/           # dry run
    python -m repro table2 --jobs 4 --datasets BeetleFly,BirdChicken

Every command accepts declarative run flags (``--jobs``, ``--datasets``,
``--max-datasets``, ``--results-dir``, ``--full-grid``, ``--seed``,
``--force``) which build a :class:`repro.api.RunConfig` threaded
explicitly through the sweeps — nothing mutates ``os.environ``.  The
legacy ``REPRO_*`` environment variables still work as a deprecated
read-only fallback for flags you do not pass.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.api.config import RunConfig

#: The paper artifacts, in the order ``all`` regenerates them.
ALL_COMMANDS = (
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
)


def _add_run_options(
    parser: argparse.ArgumentParser, sweep: bool = True, tuning: bool = True
) -> None:
    """Declarative RunConfig flags.

    ``sweep=False`` (the single-dataset verbs ``run``/``fit``/
    ``predict``) omits the flags that only steer sweeps — ``--force``,
    ``--datasets`` and ``--max-datasets`` — and ``tuning=False``
    (``predict``, which never fits) additionally omits ``--full-grid``
    and ``--seed``, so no accepted flag is ever silently ignored.
    """
    group = parser.add_argument_group("run configuration")
    if sweep:
        group.add_argument(
            "--force", action="store_true", help="ignore cached sweep results"
        )
        group.add_argument(
            "--datasets",
            default=None,
            metavar="A,B,...",
            help="comma-separated archive dataset names to restrict sweeps to",
        )
        group.add_argument(
            "--max-datasets",
            type=int,
            default=None,
            metavar="N",
            help="keep only the first N selected datasets",
        )
    group.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for feature extraction",
    )
    group.add_argument(
        "--results-dir",
        default=None,
        metavar="DIR",
        help="directory for JSON result caches and the feature cache",
    )
    if tuning:
        group.add_argument(
            "--full-grid",
            action="store_true",
            help="use the paper's full XGBoost hyper-parameter grid",
        )
        group.add_argument(
            "--seed",
            type=int,
            default=None,
            metavar="N",
            help="random seed (default 0)",
        )


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """A :class:`RunConfig` from parsed CLI flags.

    Starts from the deprecated ``REPRO_*`` env shim (so partially
    migrated setups keep working, with a warning) and overrides it with
    every flag the user actually passed.
    """
    try:
        config = RunConfig.from_env()
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    changes: dict[str, object] = {}
    if getattr(args, "force", False):
        changes["force"] = True
    if args.jobs is not None:
        changes["jobs"] = args.jobs
    datasets = getattr(args, "datasets", None)
    if datasets is not None:
        try:
            changes["datasets"] = RunConfig.parse_dataset_list(datasets, "--datasets")
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        changes["source"] = "explicit"
    if getattr(args, "max_datasets", None) is not None:
        changes["max_datasets"] = args.max_datasets
    if args.results_dir is not None:
        changes["results_dir"] = args.results_dir
    if getattr(args, "full_grid", False):
        changes["full_grid"] = True
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    try:
        return config.replace(**changes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


# -- artifact commands ---------------------------------------------------------


def _print_datasets() -> None:
    from repro.data.archive import ARCHIVE_METADATA
    from repro.experiments.reporting import format_table

    rows = [
        [
            spec.name,
            spec.n_classes,
            f"{spec.paper_train}->{spec.train_size}",
            f"{spec.paper_test}->{spec.test_size}",
            f"{spec.paper_length}->{spec.length}",
            spec.archetype,
            "yes" if spec.swapped_in_table3 else "",
        ]
        for spec in ARCHIVE_METADATA.values()
    ]
    print(
        format_table(
            ["Dataset", "k", "train", "test", "length", "archetype", "swapped(T3)"],
            rows,
            title="Surrogate archive (paper size -> scaled size)",
        )
    )


def _dispatch(command: str, config: RunConfig) -> None:
    """Regenerate one paper artifact under the given run config."""
    if command == "datasets":
        _print_datasets()
        return
    if command == "table2":
        from repro.experiments.table2 import render_table2, run_table2

        print(render_table2(run_table2(config=config)))
        return
    if command == "table3":
        from repro.experiments.table3 import render_table3, run_table3

        print(render_table3(run_table3(config=config)))
        return
    if command in ("fig2", "fig3", "fig4", "fig5", "fig8", "fig9"):
        from repro.experiments.figures import render

        print(render(command, config=config))
        return
    if command in ("fig6", "fig7"):
        from repro.experiments.cd_diagrams import (
            FIG6_METHODS,
            FIG7_METHODS,
            render_cd,
            run_fig6,
            run_fig7,
        )

        if command == "fig6":
            print(render_cd(run_fig6(config=config), FIG6_METHODS, "Figure 6"))
        else:
            print(render_cd(run_fig7(config=config), FIG7_METHODS, "Figure 7"))
        return
    if command == "fig10":
        from repro.experiments.case_study import render_case_study, run_case_study

        print(render_case_study(run_case_study(config=config)))
        return
    raise ValueError(f"unknown command {command!r}")


# -- estimator verbs -----------------------------------------------------------


def _configure_model(model, split, config: RunConfig, tune: bool):
    """Wire run-config knobs (seed, jobs, grid) into a registry model.

    Only parameters the model actually declares are set, so the same
    code path serves MVG pipelines and every baseline.
    """
    from repro.experiments.harness import active_param_grid

    if not hasattr(model, "_param_names"):
        return model
    params = set(model._param_names())
    updates: dict[str, object] = {}
    if "random_state" in params:
        updates["random_state"] = config.seed
    if "n_jobs" in params:
        updates["n_jobs"] = config.jobs
    if "feature_cache" in params:
        updates["feature_cache"] = config.feature_cache
    if "cache_dir" in params:
        updates["cache_dir"] = str(config.feature_cache_dir())
    if tune and "param_grid" in params:
        updates["param_grid"] = active_param_grid(split.train.n_classes, config)
    if updates:
        model.set_params(**updates)
    return model


def _cmd_list_models(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table
    from repro.registry import available

    entries = available(kind=args.kind)
    rows = [
        [
            entry.name,
            entry.kind,
            ",".join(entry.variants) if entry.variants else "",
            entry.description,
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["Name", "Kind", "Variants", "Description"],
            rows,
            title="Registered components (make with `python -m repro run --model NAME`)",
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import run_check

    paths = args.paths or ["src/repro"]
    return run_check(
        paths,
        fmt=args.format,
        baseline=args.baseline,
        update_baseline=args.write_baseline,
        root=args.root,
    )


def _cmd_list_rules(args: argparse.Namespace) -> int:
    from repro.analysis import run_list_rules

    return run_list_rules(verbose=args.verbose)


def _load_split(name: str, orientation: str):
    from repro.data.archive import load_archive_dataset

    try:
        return load_archive_dataset(name, orientation=orientation)
    except KeyError as exc:
        # KeyError str() wraps the message in quotes; unwrap it.
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None


def _make_model(spec: str):
    from repro.registry import REGISTRY

    try:
        entry = REGISTRY.entry(spec)
        if entry.kind != "classifier":
            raise SystemExit(
                f"--model must name a classifier; {entry.name!r} is a "
                f"{entry.kind} (see `python -m repro list-models --kind classifier`)"
            )
        if entry.consumes == "features":
            raise SystemExit(
                f"{entry.name!r} operates on already-extracted features, not raw "
                "series; compose it behind an extractor instead, e.g. "
                f"repro.api.build_pipeline('znorm', 'batch-features:G', {entry.name!r})"
            )
        return REGISTRY.make(spec)
    except (KeyError, ValueError) as exc:
        # KeyError str() wraps the message in quotes; unwrap it.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(message) from None


def _run_settings(args: argparse.Namespace, config: RunConfig, dataset: str) -> dict:
    """The identifying settings of one ``run``/``fit`` invocation — the
    input of its ledger config hash."""
    return {
        "model": args.model,
        "dataset": dataset,
        "orientation": args.orientation,
        "seed": config.seed,
        "full_grid": config.full_grid,
        "tuned": not args.no_tune,
    }


def _record_cli_run(
    kind: str,
    config: RunConfig,
    settings: dict,
    **row: object,
) -> None:
    """Append one ``run``/``fit`` row to the results-directory ledger.

    Best-effort by design: a missing or broken ledger warns and the verb
    still succeeds — provenance must never fail the run it describes.
    """
    from repro.experiments.harness import results_dir
    from repro.ledger import Ledger, config_fingerprint

    ledger = Ledger.attach(results_dir(config) / "ledger.db")
    if ledger is None:
        return
    try:
        row_id = ledger.record(
            kind,
            label=str(settings["model"]),
            model=str(settings["model"]),
            dataset=str(settings["dataset"]),
            seed=config.seed,
            config_hash=config_fingerprint(settings),
            config=settings,
            **row,
        )
    finally:
        ledger.close()
    if row_id is not None:
        print(f"ledger:   run #{row_id} recorded in {ledger.path}")


def _cmd_run(args: argparse.Namespace) -> int:
    """Fit a registry model on a dataset's train split, report test error."""
    from repro.ml.metrics import error_rate

    config = build_run_config(args)
    split = _load_split(args.dataset, args.orientation)
    model = _configure_model(_make_model(args.model), split, config, tune=not args.no_tune)

    t0 = time.perf_counter()
    model.fit(split.train.X, split.train.y)
    fit_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    predictions = model.predict(split.test.X)
    predict_seconds = time.perf_counter() - t0
    error = error_rate(split.test.y, predictions)

    print(f"model:    {args.model}")
    print(f"dataset:  {split.name} ({args.orientation} orientation)")
    print(
        f"          train {split.train.n_samples} x {split.train.length}, "
        f"test {split.test.n_samples}, {split.train.n_classes} classes"
    )
    print(f"error:    {error:.6g}  (accuracy {1.0 - error:.6g})")
    print(f"runtime:  fit {fit_seconds:.2f}s, predict {predict_seconds:.2f}s")
    _record_cli_run(
        "run",
        config,
        _run_settings(args, config, split.name),
        error=float(error),
        metrics={
            "fit_seconds": round(fit_seconds, 6),
            "predict_seconds": round(predict_seconds, 6),
        },
        wall_seconds=fit_seconds + predict_seconds,
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    """Fit a registry model and persist it (JSON file and/or model store)."""
    from repro.ml.metrics import error_rate
    from repro.ml.persistence import save_model

    if not args.out and not args.store:
        raise SystemExit("fit needs a destination: --out PATH and/or --store DIR --name NAME")
    if args.store and not args.name:
        raise SystemExit("--store needs --name to label the stored model")
    if args.name and not args.store:
        raise SystemExit("--name only makes sense together with --store")
    if args.name:
        # Validate before the (possibly minutes-long) fit, not after.
        from repro.serve.store import validate_model_name

        try:
            validate_model_name(args.name)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

    config = build_run_config(args)
    split = _load_split(args.dataset, args.orientation)
    model = _configure_model(_make_model(args.model), split, config, tune=not args.no_tune)
    t0 = time.perf_counter()
    model.fit(split.train.X, split.train.y)
    fit_seconds = time.perf_counter() - t0
    train_error = error_rate(split.train.y, model.predict(split.train.X))
    print(f"fitted {args.model} on {split.name} (train error {train_error:.6g})")
    settings = _run_settings(args, config, split.name)
    record = None
    artifact = None
    try:
        if args.out:
            artifact = str(save_model(model, args.out))
            print(f"saved to {artifact}")
        if args.store:
            from repro.ledger import config_fingerprint
            from repro.serve import ModelStore

            # The stored metadata carries the full provenance triple
            # (dataset, seed, config hash) so the store ledger's publish
            # row can answer "where did this version come from".
            record = ModelStore(args.store).save(
                model,
                args.name,
                metadata={
                    "spec": args.model,
                    "dataset": split.name,
                    "orientation": args.orientation,
                    "train_error": round(train_error, 6),
                    "seed": config.seed,
                    "config_hash": config_fingerprint(settings),
                },
            )
            artifact = str(Path(args.store) / "blobs" / record.name / f"v{record.version}.json")
            print(
                f"stored as {record.name} v{record.version} in {args.store} "
                f"(sha256 {record.sha256[:12]}…)"
            )
    except (TypeError, ValueError) as exc:
        raise SystemExit(
            f"{exc}; persistable models include mvg:* and xgboost/rf/tree/logreg "
            "pipelines (see repro.ml.persistence)"
        ) from None
    _record_cli_run(
        "fit",
        config,
        settings,
        error=float(train_error),
        metrics={"train_error": round(train_error, 6), "fit_seconds": round(fit_seconds, 6)},
        artifact=artifact,
        wall_seconds=fit_seconds,
        meta=(
            {"store": str(args.store), "name": record.name, "version": record.version}
            if record is not None
            else None
        ),
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Load a saved model and evaluate it on a dataset split."""
    from repro.ml.metrics import error_rate
    from repro.ml.persistence import load_model

    config = build_run_config(args)
    split = _load_split(args.dataset, args.orientation)
    try:
        model = load_model(args.model_file)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot load model from {args.model_file}: {exc}") from None
    # Re-wire machine-local extraction knobs (jobs, cache location) —
    # they are runtime settings, not part of the persisted model.
    _configure_model(model, split, config, tune=False)
    part = split.train if args.split == "train" else split.test
    predictions = model.predict(part.X)
    if args.show_predictions:
        print(" ".join(str(p) for p in predictions))
    error = error_rate(part.y, predictions)
    print(f"{args.dataset} {args.split} error: {error:.6g} ({part.n_samples} series)")
    return 0


# -- serving verbs -------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace, pipeline_config=None) -> int:
    """Run the HTTP inference server over a model store.

    With ``pipeline_config`` (the ``pipeline`` verb), a
    :class:`repro.pipeline.PipelineController` is attached to the
    shared state before traffic flows: stream ticks feed drift
    detectors, and ``/v1/pipeline`` answers.
    """
    from repro.serve import ModelStore, create_async_server
    from repro.serve.store import ModelStoreError

    if args.loop == "threads":
        print(
            "warning: --loop threads is deprecated and ignored; "
            "serving on the asyncio front end",
            file=sys.stderr,
        )
    if args.max_wait_ms is not None:
        print(
            "warning: --max-wait-ms is deprecated and ignored; "
            "the micro-batcher takes whatever is queued without a timer",
            file=sys.stderr,
        )
    if args.max_sessions < 1:
        raise SystemExit(f"--max-sessions must be >= 1, got {args.max_sessions}")
    if args.stream_buffer is not None and args.stream_buffer < 1:
        raise SystemExit(f"--stream-buffer must be >= 1, got {args.stream_buffer}")
    store = ModelStore(args.store)
    try:
        names = store.names()
    except ModelStoreError as exc:
        raise SystemExit(str(exc)) from None
    if not names:
        raise SystemExit(
            f"model store {args.store} is empty; save a model first, e.g. "
            "`python -m repro fit --model mvg:A --dataset BeetleFly "
            f"--store {args.store} --name beetlefly`"
        )
    if args.model is not None and args.model not in names:
        raise SystemExit(
            f"no model named {args.model!r} in {args.store} "
            f"(known: {', '.join(names)})"
        )
    options = dict(
        default_model=args.model,
        max_batch_size=args.max_batch,
        feature_cache_size=args.feature_cache_size,
        jobs=args.jobs,
        reload_interval_seconds=args.reload_interval,
        max_stream_sessions=args.max_sessions,
    )
    if args.stream_buffer is not None:
        options["stream_buffer_points"] = args.stream_buffer
    server = create_async_server(store, host=args.host, port=args.port, **options)
    if pipeline_config is not None:
        from repro.pipeline import PipelineController

        server.state.attach_pipeline(PipelineController(store, pipeline_config))
    try:
        host, port = server.start_background()
    except OSError as exc:
        server.close()
        raise SystemExit(str(exc)) from None
    print(f"serving {len(names)} model(s) from {args.store} on http://{host}:{port}")
    print(
        "  POST /v1/classify   POST /v1/batch   POST /v1/stream   "
        "GET /v1/models   GET /v1/runs   GET /healthz   GET /metrics"
    )
    print(f"  micro-batching: up to {args.max_batch} queued requests per batch")
    print(
        f"  streaming: up to {args.max_sessions} sessions, "
        f"{server.state.stream_buffer_points} queued points/session "
        "(429 + Retry-After beyond)"
    )
    if args.reload_interval > 0:
        print(f"  hot reload: store polled every {args.reload_interval}s")
    if pipeline_config is not None:
        print(
            "  continuous pipeline: GET/POST /v1/pipeline "
            f"(drift threshold {pipeline_config.drift.threshold}, "
            f"min {pipeline_config.retrain.min_windows} windows, "
            f"cooldown {pipeline_config.cooldown_seconds}s)"
        )
    # The loop runs on a background thread; park the main thread so
    # SIGINT lands here and triggers a clean shutdown.
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """``serve`` plus the closed drift→retrain→hot-reload loop."""
    from repro.pipeline import DriftConfig, PipelineConfig, RetrainConfig

    if args.reload_interval <= 0:
        raise SystemExit(
            "pipeline needs hot reload to pick up retrained versions; "
            "--reload-interval must be > 0"
        )
    try:
        config = PipelineConfig(
            drift=DriftConfig(
                reference_window=args.drift_reference,
                test_window=args.drift_test,
                smoothing_span=args.smoothing_span,
                threshold=args.drift_threshold,
                consecutive=args.drift_consecutive,
            ),
            retrain=RetrainConfig(
                min_windows=args.min_windows,
                max_windows=args.max_windows,
                max_attempts=args.retrain_attempts,
                max_concurrent=args.retrain_concurrency,
                seed=args.seed if args.seed is not None else 0,
            ),
            cooldown_seconds=args.cooldown,
            enabled=not args.start_disabled,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return _cmd_serve(args, pipeline_config=config)


def _stream_points(args: argparse.Namespace):
    """The point source for ``stream``: a dataset series or stdin floats."""
    if args.dataset:
        split = _load_split(args.dataset, args.orientation)
        part = split.train if args.split == "train" else split.test
        if not 0 <= args.index < part.n_samples:
            raise SystemExit(
                f"--index {args.index} out of range for {args.dataset} "
                f"{args.split} ({part.n_samples} series)"
            )
        for value in part.X[args.index]:
            yield float(value)
        return
    import math
    import shlex

    for line in sys.stdin:
        try:
            tokens = shlex.split(line, comments=True)
        except ValueError as exc:
            raise SystemExit(f"cannot parse stdin line {line!r}: {exc}") from None
        for token in tokens:
            try:
                value = float(token)
            except ValueError:
                raise SystemExit(
                    f"stdin token {token!r} is not a number; feed one or more "
                    "whitespace-separated floats per line"
                ) from None
            if not math.isfinite(value):
                raise SystemExit(
                    f"stdin token {token!r} is not finite; series values "
                    "must be finite numbers"
                )
            yield value


def _format_tick(tick: dict) -> str:
    import json as _json

    return f"{tick['offset']}\t{tick['label']}\t{_json.dumps(tick['scores'])}"


def _post_json_retrying(
    endpoint: str,
    payload: dict,
    attempts: int,
    rng,
    timeout: float = 120.0,
) -> dict:
    """POST JSON with bounded retry on transient failures.

    Connection errors (server restarting, socket reset) and 5xx
    responses back off exponentially with jitter and retry up to
    ``attempts`` times; 4xx responses are the client's fault and exit
    immediately.  A long stream should survive a server hiccup — e.g.
    a hot reload or a retrain-induced GC pause — instead of aborting
    on the first refused connection.
    """
    import json as _json
    import urllib.error
    import urllib.request

    last_error = "no attempts made"
    for attempt in range(1, max(1, attempts) + 1):
        request = urllib.request.Request(
            endpoint,
            data=_json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return _json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            if exc.code < 500:
                raise SystemExit(f"server returned {exc.code}: {detail}") from None
            last_error = f"server returned {exc.code}: {detail}"
        except (urllib.error.URLError, OSError) as exc:
            last_error = f"cannot reach {endpoint}: {exc}"
        if attempt <= max(1, attempts) - 1:
            delay = min(5.0, 0.2 * (2 ** (attempt - 1)))
            delay *= 1.0 + rng.uniform(-0.25, 0.25)
            print(
                f"# transient failure (attempt {attempt}/{attempts}), "
                f"retrying in {delay:.2f}s: {last_error}",
                file=sys.stderr,
            )
            time.sleep(delay)
    raise SystemExit(f"giving up after {attempts} attempt(s): {last_error}")


def _cmd_stream(args: argparse.Namespace) -> int:
    """Stream points through a sliding window and print one label per tick.

    Local mode (``--store``) runs the streaming pipeline in-process:
    the window's visibility graphs are maintained incrementally
    (:class:`repro.core.streaming.StreamingFeatureExtractor`) and each
    tick predicts from the cached features.  Remote mode (``--url``)
    drives a ``/v1/stream`` session on a running server.
    """
    points = _stream_points(args)
    emitted = 0
    if args.url:
        import random

        endpoint = args.url.rstrip("/") + "/v1/stream"
        # Seeded: retry timing is reproducible run to run.
        retry_rng = random.Random(0)

        def post(payload: dict) -> dict:
            return _post_json_retrying(endpoint, payload, args.retries, retry_rng)

        create: dict = {"op": "create", "window": args.window, "stride": args.stride}
        if args.model:
            create["model"] = args.model
        if args.version:
            create["version"] = args.version
        session = post(create)
        sid = session["session"]
        print(
            f"# session {sid}: {session['model']} v{session['version']}, "
            f"window {session['window']}, stride {session['stride']}",
            file=sys.stderr,
        )
        chunk: list[float] = []
        try:
            def flush() -> None:
                nonlocal emitted
                if not chunk:
                    return
                outcome = post({"op": "append", "session": sid, "points": chunk})
                chunk.clear()
                for tick in outcome["results"]:
                    print(_format_tick(tick))
                    emitted += 1

            for value in points:
                chunk.append(value)
                if len(chunk) >= args.chunk:
                    flush()
            flush()
        finally:
            # Best effort: a failed close (server gone, session already
            # retired) must not mask the error that ended the stream.
            try:
                post({"op": "close", "session": sid})
            except SystemExit:
                pass
    else:
        from repro.serve import InferenceEngine, ModelStore, StreamSession
        from repro.serve.store import ModelStoreError

        store = ModelStore(args.store)
        try:
            names = store.names()
            if not names:
                raise SystemExit(
                    f"model store {args.store} is empty; save a model first with "
                    "`python -m repro fit ... --store DIR --name NAME`"
                )
            name = args.model or (names[0] if len(names) == 1 else None)
            if name is None:
                raise SystemExit(
                    f"multiple models in {args.store} ({', '.join(names)}); "
                    "pick one with --model"
                )
            model = store.load(name, args.version or "latest")
        except ModelStoreError as exc:
            raise SystemExit(str(exc)) from None
        with InferenceEngine(model, name=name) as engine:
            expected = engine.expected_features
            if expected is not None:
                from repro.core.streaming import check_window_layout

                try:
                    check_window_layout(
                        args.window, engine.feature_config, expected, repr(name)
                    )
                except ValueError as exc:
                    raise SystemExit(str(exc)) from None
            try:
                session = StreamSession("local", engine, args.window, args.stride)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
            for value in points:
                outcome = session.append([value])
                for tick in outcome["results"]:
                    print(_format_tick(tick))
                    emitted += 1
    print(f"# {emitted} tick(s) emitted", file=sys.stderr)
    if emitted == 0:
        print(
            f"# window never filled ({args.window} points needed)",
            file=sys.stderr,
        )
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    """List (or delete from) a model store."""
    from repro.experiments.reporting import format_table
    from repro.serve import ModelStore
    from repro.serve.store import ModelStoreError

    store = ModelStore(args.store)
    try:
        if args.delete:
            name, _, version = args.delete.partition("@")
            store.delete(name, version or None)
            print(f"deleted {args.delete} from {args.store}")
            return 0
        records = store.list_models()
    except ModelStoreError as exc:
        raise SystemExit(str(exc)) from None
    if not records:
        print(f"model store {args.store} is empty")
        return 0
    latest = {r.name: r.version for r in records}
    rows = [
        [
            record.name,
            f"v{record.version}" + (" (latest)" if latest[record.name] == record.version else ""),
            record.kind,
            f"{record.size_bytes / 1024:.1f} KiB",
            record.created_at,
            record.sha256[:12],
            record.metadata.get("dataset", ""),
        ]
        for record in records
    ]
    print(
        format_table(
            ["Name", "Version", "Kind", "Size", "Created", "SHA-256", "Dataset"],
            rows,
            title=f"Model store {args.store}",
        )
    )
    return 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's artifacts and drive registered models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    for command in ALL_COMMANDS + ("all",):
        sub = subparsers.add_parser(command, help=f"regenerate {command}")
        _add_run_options(sub)

    # `datasets` is a pure listing — no run-config flag affects it.
    subparsers.add_parser("datasets", help="list the surrogate archive")

    sub = subparsers.add_parser("list-models", help="list registered components")
    sub.add_argument(
        "--kind",
        choices=("classifier", "extractor", "mapper"),
        default=None,
        help="restrict the listing to one component kind",
    )

    def _add_model_dataset_options(sub: argparse.ArgumentParser, model_flag: bool) -> None:
        if model_flag:
            sub.add_argument(
                "--model",
                required=True,
                metavar="SPEC",
                help="registry spec, e.g. mvg:G or boss (see list-models)",
            )
        sub.add_argument(
            "--dataset", required=True, metavar="NAME", help="archive dataset name"
        )
        sub.add_argument(
            "--orientation",
            choices=("table2", "table3"),
            default="table2",
            help="train/test orientation of the split (default table2)",
        )

    sub = subparsers.add_parser(
        "run", help="fit+evaluate a registered model on one dataset"
    )
    _add_model_dataset_options(sub, model_flag=True)
    sub.add_argument(
        "--no-tune",
        action="store_true",
        help="skip grid-search tuning (fixed default hyper-parameters)",
    )
    _add_run_options(sub, sweep=False)

    sub = subparsers.add_parser("fit", help="fit a model and save it (file or store)")
    _add_model_dataset_options(sub, model_flag=True)
    sub.add_argument("--out", default=None, metavar="PATH", help="output JSON path")
    sub.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="model-store directory to publish the fitted model into",
    )
    sub.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="model name in the store (with --store)",
    )
    sub.add_argument(
        "--no-tune", action="store_true", help="skip grid-search tuning"
    )
    _add_run_options(sub, sweep=False)

    sub = subparsers.add_parser("predict", help="evaluate a saved model on a split")
    _add_model_dataset_options(sub, model_flag=False)
    sub.add_argument(
        "--model-file", required=True, metavar="PATH", help="JSON model from `fit`"
    )
    sub.add_argument(
        "--split", choices=("train", "test"), default="test", help="split to evaluate"
    )
    sub.add_argument(
        "--show-predictions",
        action="store_true",
        help="print the predicted labels before the error summary",
    )
    _add_run_options(sub, sweep=False, tuning=False)

    def _add_serve_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store", required=True, metavar="DIR", help="model-store directory"
        )
        sub.add_argument(
            "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
        )
        sub.add_argument(
            "--port",
            type=int,
            default=8765,
            help="bind port (default 8765; 0 = any free port)",
        )
        sub.add_argument(
            "--model",
            default=None,
            metavar="NAME",
            help="default model for requests that name none (default: the only stored model)",
        )
        sub.add_argument(
            "--max-batch",
            type=int,
            default=32,
            metavar="N",
            help="micro-batch size cap (default 32)",
        )
        sub.add_argument(
            "--max-wait-ms",
            type=float,
            default=None,
            metavar="MS",
            help="deprecated and ignored: the micro-batcher has no linger window",
        )
        sub.add_argument(
            "--feature-cache-size",
            type=int,
            default=1024,
            metavar="N",
            help="in-memory per-series feature LRU entries (default 1024; 0 disables)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="worker processes for batched feature extraction",
        )
        sub.add_argument(
            "--loop",
            choices=("asyncio", "threads"),
            default="asyncio",
            help="deprecated and ignored: the asyncio front end always serves",
        )
        sub.add_argument(
            "--reload-interval",
            type=float,
            default=1.0,
            metavar="SECONDS",
            help="hot-reload store poll interval (default 1.0; 0 disables)",
        )
        sub.add_argument(
            "--max-sessions",
            type=int,
            default=64,
            metavar="N",
            help="concurrent stream-session cap; create answers 429 beyond it "
            "(default 64)",
        )
        sub.add_argument(
            "--stream-buffer",
            type=int,
            default=None,
            metavar="POINTS",
            help="per-session cap on queued stream points; a full queue answers "
            "429 with Retry-After (default 32768)",
        )

    sub = subparsers.add_parser("serve", help="HTTP inference server over a model store")
    _add_serve_options(sub)

    sub = subparsers.add_parser(
        "pipeline",
        help="serve with closed-loop drift detection, retraining and hot reload",
    )
    _add_serve_options(sub)
    group = sub.add_argument_group("continuous pipeline")
    group.add_argument(
        "--drift-threshold",
        type=float,
        default=0.5,
        metavar="X",
        help="drift score at which a tick counts toward triggering (default 0.5)",
    )
    group.add_argument(
        "--drift-reference",
        type=int,
        default=64,
        metavar="N",
        help="ticks frozen as the drift baseline (default 64)",
    )
    group.add_argument(
        "--drift-test",
        type=int,
        default=32,
        metavar="N",
        help="rolling ticks compared against the baseline (default 32)",
    )
    group.add_argument(
        "--smoothing-span",
        type=int,
        default=5,
        metavar="N",
        help="label-smoothing majority-vote span (default 5)",
    )
    group.add_argument(
        "--drift-consecutive",
        type=int,
        default=3,
        metavar="N",
        help="consecutive drifting ticks needed to trigger (default 3)",
    )
    group.add_argument(
        "--min-windows",
        type=int,
        default=32,
        metavar="N",
        help="labeled windows required before retraining (default 32)",
    )
    group.add_argument(
        "--max-windows",
        type=int,
        default=512,
        metavar="N",
        help="most recent windows kept per model (default 512)",
    )
    group.add_argument(
        "--retrain-attempts",
        type=int,
        default=3,
        metavar="N",
        help="fit+publish attempts per retrain job (default 3)",
    )
    group.add_argument(
        "--retrain-concurrency",
        type=int,
        default=1,
        metavar="N",
        help="concurrent retrain jobs (default 1 — single-CPU friendly)",
    )
    group.add_argument(
        "--cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="pause after a retrain before the next may trigger (default 30)",
    )
    group.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="seed for retrained models and retry jitter (default 0)",
    )
    group.add_argument(
        "--start-disabled",
        action="store_true",
        help="observe drift but do not trigger retrains until POST /v1/pipeline enables",
    )

    sub = subparsers.add_parser(
        "stream",
        help="stream points through a sliding window, one label per tick",
    )
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--store", metavar="DIR", help="model-store directory (local streaming)"
    )
    source.add_argument(
        "--url", metavar="URL", help="base URL of a running server (remote /v1/stream)"
    )
    sub.add_argument(
        "--window",
        type=int,
        required=True,
        metavar="N",
        help="sliding-window length in points (the model's training length)",
    )
    sub.add_argument(
        "--stride",
        type=int,
        default=1,
        metavar="N",
        help="new points between labels (default 1)",
    )
    sub.add_argument(
        "--model", default=None, metavar="NAME", help="stored model name"
    )
    sub.add_argument(
        "--version", default=None, metavar="V", help="model version (default latest)"
    )
    sub.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="stream one archive series instead of stdin floats",
    )
    sub.add_argument(
        "--index", type=int, default=0, metavar="I", help="series index (with --dataset)"
    )
    sub.add_argument(
        "--split", choices=("train", "test"), default="test", help="split (with --dataset)"
    )
    sub.add_argument(
        "--orientation",
        choices=("table2", "table3"),
        default="table2",
        help="split orientation (with --dataset)",
    )
    sub.add_argument(
        "--chunk",
        type=int,
        default=256,
        metavar="N",
        help="points per append request in --url mode (default 256)",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=5,
        metavar="N",
        help="attempts per request in --url mode before giving up on "
        "transient connection errors/5xx (default 5; 1 = no retry)",
    )

    sub = subparsers.add_parser("models", help="list / delete model-store entries")
    sub.add_argument(
        "--store", required=True, metavar="DIR", help="model-store directory"
    )
    sub.add_argument(
        "--delete",
        default=None,
        metavar="NAME[@VERSION]",
        help="delete one version (NAME@v2) or every version (NAME) of a model",
    )

    sub = subparsers.add_parser(
        "check", help="run the project-invariant static analyzer (repro.analysis)"
    )
    sub.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files/directories to scan (default: src/repro)",
    )
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is a stable CI artifact, default text)",
    )
    sub.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of accepted findings to subtract",
    )
    sub.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write current findings as a baseline and exit 0",
    )
    sub.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="anchor for reported paths and path-scoped rules (default: cwd)",
    )

    sub = subparsers.add_parser(
        "list-rules", help="list the static-analysis rules `repro check` enforces"
    )
    sub.add_argument(
        "--verbose",
        action="store_true",
        help="show each rule's full convention notes",
    )

    sub = subparsers.add_parser(
        "db", help="query the experiment ledger (ledger.db)"
    )
    dbsub = sub.add_subparsers(dest="db_command", required=True)

    def _add_db_target(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--db",
            default=None,
            metavar="FILE",
            help="ledger database path (overrides --store/--results-dir)",
        )
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="use a model store's ledger (<DIR>/ledger.db)",
        )
        p.add_argument(
            "--results-dir",
            default=None,
            metavar="DIR",
            help="use a results directory's ledger (<DIR>/ledger.db; "
            "default ./results)",
        )
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output format (default table)",
        )

    dbq = dbsub.add_parser("query", help="filter/sort ledger rows")
    _add_db_target(dbq)
    dbq.add_argument("--kind", default=None, help="row kind (run/sweep/eval/fit/publish/drift/delete/gc)")
    dbq.add_argument("--label", default=None, help="sweep or store-model name")
    dbq.add_argument("--model", default=None, metavar="SPEC", help="registry spec / method name")
    dbq.add_argument("--dataset", default=None, help="archive dataset name")
    dbq.add_argument("--seed", type=int, default=None, help="exact seed")
    dbq.add_argument("--search", default=None, metavar="TEXT", help="full-text search over row metadata")
    dbq.add_argument(
        "--order-by",
        default=None,
        metavar="COLUMN",
        help="sort column (e.g. error, accuracy, created_at; default: newest first)",
    )
    dbq.add_argument("--limit", type=int, default=50, metavar="N", help="max rows (default 50)")
    dbq.add_argument(
        "--best-per-dataset",
        action="store_true",
        help="one winning row (lowest error) per dataset across all matching runs",
    )

    dbs = dbsub.add_parser("stats", help="aggregate ledger statistics")
    _add_db_target(dbs)

    dbg = dbsub.add_parser(
        "gc", help="collect store blobs no ledger row or manifest references"
    )
    dbg.add_argument(
        "--store", required=True, metavar="DIR", help="model-store directory to scan"
    )
    dbg.add_argument(
        "--db",
        default=None,
        metavar="FILE",
        help="ledger consulted for liveness (default <store>/ledger.db)",
    )
    dbg.add_argument(
        "--delete",
        action="store_true",
        help="actually delete orphans (default: dry run, report only)",
    )
    dbg.add_argument(
        "--dry-run",
        action="store_true",
        help="report without deleting (the default; explicit for scripts)",
    )
    dbg.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default table)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        _print_datasets()
        return 0
    if args.command == "list-models":
        return _cmd_list_models(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "models":
        return _cmd_models(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "list-rules":
        return _cmd_list_rules(args)
    if args.command == "db":
        from repro.ledger.cli import run_db

        return run_db(args)
    config = build_run_config(args)
    commands = ALL_COMMANDS if args.command == "all" else (args.command,)
    for command in commands:
        _dispatch(command, config)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
