"""Data series behind Figures 2-5 and 8-9.

No plotting libraries are available offline, so each harness prints the
exact data a plot would show:

* Figure 2 — per-class motif probability boxplot statistics on the
  ArrowHead training set (connected and disconnected 4-motifs);
* Figures 3-5 — per-dataset error-rate pairs (the scatter points) with
  win counts for each panel, derived from the Table 2 sweep;
* Figure 8 — scatter pairs MVG vs each of the five baselines (Table 3);
* Figure 9 — log10 runtime pairs FS vs MVG with the 10x/100x speedup
  counts.

Run with ``python -m repro.experiments.figures fig2`` (or fig3..fig9).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api.config import RunConfig
from repro.data.archive import load_archive_dataset
from repro.experiments.reporting import format_table
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import BASELINES, run_table3
from repro.graph.fast import fast_visibility_graph_csr
from repro.graph.motifs import CONNECTED_MOTIFS_4, DISCONNECTED_MOTIFS_4, count_motifs
from repro.stats.comparison import win_counts


def figure2_data(dataset: str = "ArrowHead") -> dict[str, dict[int, dict[str, list[float]]]]:
    """Per-class motif probability samples for the Figure 2 boxplots.

    Returns ``{"connected": {class: {motif: [probabilities...]}},
    "disconnected": ...}`` computed from VGs of the training series.
    """
    split = load_archive_dataset(dataset, orientation="table2")
    out: dict[str, dict[int, dict[str, list[float]]]] = {
        "connected": {},
        "disconnected": {},
    }
    for series, label in zip(split.train.X, split.train.y):
        graph = fast_visibility_graph_csr(series)
        probabilities = count_motifs(graph).probability_distributions()
        label = int(label)
        for kind, keys in (
            ("connected", CONNECTED_MOTIFS_4),
            ("disconnected", DISCONNECTED_MOTIFS_4),
        ):
            per_class = out[kind].setdefault(label, {key: [] for key in keys})
            for key in keys:
                per_class[key].append(probabilities[key])
    return out


def render_figure2(dataset: str = "ArrowHead") -> str:
    """Boxplot five-number summaries per class and motif."""
    data = figure2_data(dataset)
    blocks = []
    for kind in ("connected", "disconnected"):
        rows = []
        for label in sorted(data[kind]):
            for motif, values in data[kind][label].items():
                quartiles = np.percentile(values, [0, 25, 50, 75, 100])
                rows.append(
                    [f"class {label}", motif.upper()] + [float(q) for q in quartiles]
                )
        blocks.append(
            format_table(
                ["Class", "Motif", "min", "q1", "median", "q3", "max"],
                rows,
                title=f"Figure 2 ({kind} 4-motifs, {dataset} train set)",
            )
        )
    return "\n\n".join(blocks)


def _scatter_block(
    title: str, x_name: str, y_name: str, x: list[float], y: list[float], datasets: list[str]
) -> str:
    """One scatter panel: the points plus the win summary."""
    x_wins, ties, y_wins = win_counts(np.asarray(x), np.asarray(y))
    rows = [[name, a, b] for name, a, b in zip(datasets, x, y)]
    table = format_table(["Dataset", x_name, y_name], rows, title=title)
    return (
        table
        + f"\nwins: {x_name}={x_wins}, ties={ties}, {y_name}={y_wins}\n"
    )


#: Panels of Figures 3, 4 and 5 as (title, x column, y column) triples.
FIGURE_PANELS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "fig3": (
        ("HVG MPDs vs HVG All", "A", "B"),
        ("VG MPDs vs VG All", "C", "D"),
    ),
    "fig4": (
        ("HVG All vs VG All", "B", "D"),
        ("HVG All vs UVG", "B", "E"),
        ("VG All vs UVG", "D", "E"),
    ),
    "fig5": (
        ("UVG vs AMVG", "E", "F"),
        ("AMVG vs MVG", "F", "G"),
        ("UVG vs MVG", "E", "G"),
    ),
}


def render_scatter_figure(
    figure: str, force: bool = False, config: RunConfig | None = None
) -> str:
    """Figures 3-5 from the Table 2 sweep."""
    payload = run_table2(force=force, config=config)
    datasets = payload["datasets"]
    errors = payload["errors"]
    blocks = [
        _scatter_block(
            f"{figure.upper()}: {title}",
            x_col,
            y_col,
            errors[x_col],
            errors[y_col],
            datasets,
        )
        for title, x_col, y_col in FIGURE_PANELS[figure]
    ]
    return "\n".join(blocks)


def render_figure8(force: bool = False, config: RunConfig | None = None) -> str:
    """Figure 8: MVG error vs each baseline's error."""
    payload = run_table3(force=force, config=config)
    datasets = payload["datasets"]
    errors = payload["errors"]
    blocks = [
        _scatter_block(
            f"FIG8: {method} vs MVG", method, "MVG", errors[method], errors["MVG"], datasets
        )
        for method in BASELINES
    ]
    return "\n".join(blocks)


def render_figure9(force: bool = False, config: RunConfig | None = None) -> str:
    """Figure 9: log10 runtime FS vs MVG."""
    payload = run_table3(force=force, config=config)
    datasets = payload["datasets"]
    mvg = np.asarray(payload["mvg_fe"]) + np.asarray(payload["mvg_clf"])
    fs = np.asarray(payload["fs_runtime"])
    rows = [
        [name, float(np.log10(max(f, 1e-6))), float(np.log10(max(m, 1e-6)))]
        for name, f, m in zip(datasets, fs, mvg)
    ]
    table = format_table(
        ["Dataset", "log10 FS(s)", "log10 MVG(s)"], rows, title="Figure 9: runtime FS vs MVG"
    )
    ratio = fs / np.maximum(mvg, 1e-9)
    summary = (
        f"\nMVG faster on {int(np.sum(ratio > 1))}/{len(datasets)} datasets; "
        f">=10x on {int(np.sum(ratio >= 10))}; >=100x on {int(np.sum(ratio >= 100))}; "
        f"total speedup {float(fs.sum() / max(mvg.sum(), 1e-9)):.1f}x"
    )
    return table + summary


def render(figure: str, force: bool = False, config: RunConfig | None = None) -> str:
    """Render any figure by name (``fig2`` .. ``fig9``)."""
    if figure == "fig2":
        return render_figure2()
    if figure in FIGURE_PANELS:
        return render_scatter_figure(figure, force=force, config=config)
    if figure == "fig8":
        return render_figure8(force=force, config=config)
    if figure == "fig9":
        return render_figure9(force=force, config=config)
    raise ValueError(
        f"unknown figure {figure!r}; expected fig2, fig3, fig4, fig5, fig8 or fig9 "
        "(fig6/fig7 live in repro.experiments.cd_diagrams, fig10 in case_study)"
    )


def main() -> None:
    """CLI: render the figures named in argv (fig2 by default)."""
    args = [arg for arg in sys.argv[1:] if not arg.startswith("--")]
    force = "--force" in sys.argv
    figures = args or ["fig2"]
    for figure in figures:
        print(render(figure, force=force))
        print()


if __name__ == "__main__":
    main()
