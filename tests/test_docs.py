"""Documentation stays true: every metric family a live server exports
is listed in docs/metrics.md (and vice versa), and every relative link
in docs/ and README.md resolves."""

import re
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.pipeline import PipelineController
from repro.serve import ModelStore

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def scrape(tmp_path_factory, serve):
    """One /metrics payload from a maximally-wired server: watcher on,
    pipeline attached, ledger-backed store — every collector registered,
    so every family renders at least its HELP/TYPE header."""
    store = ModelStore(tmp_path_factory.mktemp("store-docs"))
    rng = np.random.default_rng(1)
    model = NearestNeighborEuclidean().fit(
        rng.normal(size=(8, 16)), np.repeat([0, 1], 4)
    )
    store.save(model, "nn")
    with serve(
        store,
        pipeline=PipelineController(store),
        default_model="nn",
        reload_interval_seconds=0.2,
    ) as server:
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as response:
            yield response.read().decode()


def _exported_families(payload: str) -> set[str]:
    return set(re.findall(r"^# TYPE (repro_\w+) ", payload, flags=re.M))


def _documented_families(text: str) -> set[str]:
    """First backticked name of each metrics-table row."""
    return set(re.findall(r"^\| `(repro_\w+)` \|", text, flags=re.M))


class TestMetricsDocCompleteness:
    def test_every_exported_family_is_documented(self, scrape):
        exported = _exported_families(scrape)
        assert exported, "server exported no repro_* families"
        documented = _documented_families((REPO / "docs" / "metrics.md").read_text())
        missing = exported - documented
        assert not missing, (
            f"families exported by a live server but absent from "
            f"docs/metrics.md: {sorted(missing)}"
        )

    def test_every_documented_family_is_exported(self, scrape):
        exported = _exported_families(scrape)
        documented = _documented_families((REPO / "docs" / "metrics.md").read_text())
        stale = documented - exported
        assert not stale, (
            f"families documented in docs/metrics.md but not exported by "
            f"a live server (renamed or removed?): {sorted(stale)}"
        )

    def test_doc_types_match_exported_types(self, scrape):
        exported = dict(
            re.findall(r"^# TYPE (repro_\w+) (\w+)", scrape, flags=re.M)
        )
        rows = re.findall(
            r"^\| `(repro_\w+)` \| (\w+) \|",
            (REPO / "docs" / "metrics.md").read_text(),
            flags=re.M,
        )
        mismatched = {
            name: (doc_type, exported[name])
            for name, doc_type in rows
            if name in exported and doc_type != exported[name]
        }
        assert not mismatched, f"doc type != exported TYPE: {mismatched}"


LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _doc_files() -> list[Path]:
    return [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


class TestDocLinks:
    def test_relative_links_resolve(self):
        broken = []
        for doc in _doc_files():
            for target in LINK.findall(doc.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if not path:  # pure in-page anchor
                    continue
                if not (doc.parent / path).exists():
                    broken.append(f"{doc.relative_to(REPO)} -> {target}")
        assert not broken, f"broken relative links: {broken}"

    def test_docs_exist_and_crosslink(self):
        docs = {path.name for path in (REPO / "docs").glob("*.md")}
        assert {"architecture.md", "operations.md", "metrics.md"} <= docs
        readme = (REPO / "README.md").read_text()
        for name in ("architecture.md", "operations.md", "metrics.md"):
            assert f"docs/{name}" in readme, f"README does not link docs/{name}"
