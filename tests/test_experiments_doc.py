"""EXPERIMENTS.md cites the committed reports, cell for cell.

The ``scaling`` and ``pareto`` sections quote ``results/scaling.txt``
and ``results/pareto.txt``.  These tests parse the markdown tables and
the numbers in the findings and check each against the report, so a
regenerated report and the document cannot drift apart.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


def section(experiment_id: str) -> str:
    """The text of the section whose heading names ``experiment_id``."""
    start = DOC.index(f"(`{experiment_id}`)\n")
    end = DOC.find("\n## ", start)
    return DOC[start:end]


def markdown_rows(text: str) -> list:
    """The body rows of the first markdown table in ``text``, each a list
    of cells with emphasis stripped."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip().strip("*") for cell in line.strip("|").split("|")]
            for line in lines[2:]]


def report(experiment_id: str) -> tuple:
    """``(rows, findings, lines)`` of ``results/<experiment_id>.txt``:
    the table rows split on whitespace, the findings as strings."""
    lines = (ROOT / "results" / f"{experiment_id}.txt").read_text(
        encoding="utf-8").splitlines()
    rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
    rows = []
    for line in lines[rule + 1:]:
        if not line.startswith(" ") and not line.startswith("*"):
            break
        rows.append(line.split())
    start = lines.index("findings:")
    findings = dict(line.strip().split(" = ")
                    for line in lines[start + 1:] if line.startswith("  "))
    return rows, findings, lines


def instructions(cell: str) -> int:
    """``"400 K (default)"`` -> 400000."""
    value, unit = cell.split()[:2]
    return int(float(value) * {"K": 1_000, "M": 1_000_000}[unit])


def test_scaling_table_matches_report():
    rows, findings, _ = report("scaling")
    # instructions, L1-I miss, L1-D miss, L2 local miss, L2/1k, CPI
    by_scale = {int(row[0]): (row[2], row[4], row[5]) for row in rows}
    doc = {instructions(cells[0]): tuple(cells[1:])
           for cells in markdown_rows(section("scaling"))}
    assert doc == by_scale
    largest = max(by_scale)
    text = " ".join(section("scaling").split())
    assert f"CPI is {by_scale[largest][2]}" in text
    assert f"{findings['l2_shrink_factor']}x fewer" in text


def pareto_rows() -> list:
    """``(technology, size_kw, ways, cycles, cpi, epi)`` per report row."""
    rows, _, _ = report("pareto")
    return [(tech, int(size.rstrip("K")), int(ways), int(cycles),
             float(cpi), float(epi))
            for tech, size, ways, cycles, cpi, epi in
            (row[-6:] for row in rows)]


def test_pareto_frontier_matches_report():
    _, _, lines = report("pareto")
    start = lines.index("frontier (ascending CPI):") + 1
    frontier = []
    for line in lines[start:]:
        match = re.fullmatch(r"  (\S+)\s+CPI (\S+), EPI (\S+) pJ", line)
        if match is None:
            break
        frontier.append(list(match.groups()))
    # "all-gaas / 512 KW / 2-way" is the report's "all-gaas/512KW/2w".
    doc = [[label.replace(" ", "").replace("-way", "w")] + rest
           for label, *rest in markdown_rows(section("pareto"))]
    assert doc == frontier
    assert len(frontier) == 4


def test_pareto_findings_match_report():
    rows = pareto_rows()
    by_point = {(tech, size, ways): (cycles, cpi, epi)
                for tech, size, ways, cycles, cpi, epi in rows}
    text = " ".join(section("pareto").split())
    assert f"the {len(rows)} points" in text

    def cycles(tech):
        values = [c for (t, _, _), (c, _, _) in by_point.items() if t == tech]
        return f"{min(values)}–{max(values)}"

    assert (f"reaches {cycles('all-gaas')} cycles vs. {cycles('paper')}"
            in text)
    geometries = [(size, ways) for tech, size, ways in by_point
                  if tech == "paper"]
    ratios = [by_point[("all-gaas", *g)][2] / by_point[("paper", *g)][2]
              for g in geometries]
    assert f"at {min(ratios):.1f}–{max(ratios):.1f}× the energy" in text
    # BiCMOS shares the paper's L2: equal CPI, higher EPI, so dominated.
    extra = []
    for g in geometries:
        _, bicmos_cpi, bicmos_epi = by_point[("bicmos", *g)]
        _, paper_cpi, paper_epi = by_point[("paper", *g)]
        assert bicmos_cpi == paper_cpi and bicmos_epi > paper_epi
        extra.append(bicmos_epi - paper_epi)
    assert "dominated at every point" in text
    assert (f"pays {round(min(extra))}–{round(max(extra))} pJ/instr more"
            in text)
