"""EXPERIMENTS.md cites the committed reports, cell for cell.

The Table 1, Fig. 2 to Fig. 11, ``l1size``, ``scaling``, ``variance``,
``clockrate``, ``pareto``, ``tech``, ``perbench`` and write-path
ablation sections quote ``results/table1.txt``, ``fig2.txt`` to
``fig11.txt``, ``l1size.txt``, ``scaling.txt``, ``variance.txt``,
``clockrate.txt``, ``pareto.txt``, ``tech.txt``, ``perbench.txt``,
``wbdepth.txt``, ``wboverlap.txt`` and ``coloring.txt``.  These tests
parse the markdown tables and the numbers in the findings and check
each against the report, so a regenerated report and the document
cannot drift apart.  Where a test checks a column or a paragraph, every
number written in it must be one the test checked.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from repro.tech import MCM, interconnect_fraction
from repro.tech.sram import GAAS_1KX32
from repro.tech.timing import paper_expectations

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


def section(experiment_id: str) -> str:
    """The text of the section whose heading names ``experiment_id``."""
    start = re.search(rf"^## .*`{experiment_id}`", DOC, re.M).start()
    end = DOC.find("\n## ", start)
    return DOC[start:end]


def markdown_rows(text: str, table: int = 0) -> list:
    """The body rows of a markdown table in ``text`` (the first, unless
    ``table`` counts further), each a list of cells with emphasis
    stripped."""
    block = re.findall(r"(?:^\|.*\n?)+", text, re.M)[table]
    return [[cell.strip().strip("*") for cell in line.strip("|").split("|")]
            for line in block.splitlines()[2:]]


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


def numbers(text: str) -> set:
    """Every number written in ``text`` as a word of its own."""
    return set(re.findall(r"\b\d+(?:\.\d+)?\b", text))


def columns(experiment_id: str, *names: str) -> dict:
    """``{first cell: {name: value}}`` of a report whose first column is
    a number, with ``names`` naming the columns after it."""
    rows, _, _ = report(experiment_id)
    return {int(row[0]): dict(zip(names, map(float, row[1:])))
            for row in rows}


def labelled(experiment_id: str) -> dict:
    """``{label: [value, ...]}`` of a report whose first column is a
    right-aligned label: a row's values are its trailing numbers."""
    _, _, lines = report(experiment_id)
    rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
    table = {}
    for line in lines[rule + 1:]:
        if line.endswith(":"):
            break
        words = line.split()
        k = len(words)
        while re.fullmatch(r"-?\d+(?:\.\d+)?", words[k - 1]):
            k -= 1
        table[" ".join(words[:k])] = words[k:]
    return table


def rounded(value, places: int) -> str:
    """A report's printed number rounded half up to ``places`` decimals,
    as the document writes it."""
    return str(Decimal(value).quantize(Decimal(1).scaleb(-places),
                                       ROUND_HALF_UP))


def report_tables(experiment_id: str) -> list:
    """Every table of a report, each ``{first cell: [later cells]}``."""
    _, _, lines = report(experiment_id)
    tables = []
    for i, line in enumerate(lines):
        if line and set(line) == {"-"}:
            tables.append({})
            for row in lines[i + 1:]:
                if not row.startswith(" "):
                    break
                first, *rest = row.split()
                tables[-1][first] = rest
    return tables


def measured(experiment_id: str, table: int = 0) -> dict:
    """``{first cell: third cell}`` of a section's table, with every
    emphasis mark removed."""
    return {cells[0]: cells[2].replace("*", "")
            for cells in markdown_rows(section(experiment_id), table)}


class Cells:
    """A section's measured cells and the numbers its checks cite."""

    def __init__(self, cells: dict):
        self.cells = cells
        self.cited = set()

    def cites(self, claim_id: str, claim: str) -> None:
        assert claim in self.cells[claim_id], claim_id
        self.cited |= numbers(claim)

    def all_cited(self) -> bool:
        return numbers(" ".join(self.cells.values())) <= self.cited


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
    # The slice grows with the trace; Fig. 3 varies it alone at the
    # default length, whose CPI both reports share.
    fig3 = {int(slice_): cells[3]
            for slice_, cells in report_tables("fig3")[0].items()}
    assert fig3[100_000] == by_scale[400_000][2]
    assert (f"takes CPI from {fig3[100_000]} (100 K cycles) to "
            f"{fig3[500_000]} (500 K)") in text


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


WRITE_THROUGH = ("write-miss-invalidate", "write-only", "subblock")


def test_fig5_claims_match_report():
    policies = ("write-back",) + WRITE_THROUGH
    cpi = columns("fig5", *policies)
    _, findings, lines = report("fig5")
    assert lines[1].split()[-4:] == list(policies)
    rows = markdown_rows(section("fig5"))
    text = " ".join(" ".join(cells[2] for cells in rows).split())
    cited = set()

    def cites(claim: str) -> None:
        assert claim in text
        cited.update(numbers(claim))

    fast = [a for a in cpi if a <= 8]
    assert all(cpi[a][p] < cpi[a]["write-back"]
               for a in fast for p in WRITE_THROUGH)
    cites(f"beats write-back at every access time up to {max(fast)} "
          f"cycles")
    slow = max(cpi)
    assert all(cpi[slow]["write-back"] < cpi[slow][p] for p in WRITE_THROUGH)
    cites(f"write-back beats all three at {slow} cycles")
    crossover = float(findings["crossover_interpolated"])
    cites(f"crossover is **{crossover:.1f} cycles**")
    gap = abs(cpi[8]["write-back"] - cpi[8]["write-only"])
    cites(f"at 8 cycles the two policies sit within "
          f"{math.ceil(gap * 1000) / 1000:.3f} CPI")
    delta = findings["write_only_minus_subblock_at_4c"]
    assert f"{cpi[4]['write-only'] - cpi[4]['subblock']:.4f}" == delta
    cites(f"Δ = {delta} CPI at 4 cycles")
    assert all(cpi[a]["write-only"] < cpi[a]["write-miss-invalidate"]
               for a in cpi)
    cites("write-only beats invalidate at every access time")
    # Write-back's write-hit loss is Fig. 4's "L1 writes" component.
    _, _, fig4 = report("fig4")
    l1_writes = next(float(line.split()[-1]) for line in fig4
                     if line.strip().startswith("L1 writes "))
    cites(f"{l1_writes:.3f} CPI")
    assert numbers(text) <= cited


def test_ablations_table_matches_reports():
    rows = {cells[0]: cells[1] for cells in markdown_rows(section("wbdepth"))}
    assert len(rows) == 3
    cited = set()

    depth = rows["write-buffer depth (write-only policy)"]
    cpi = {d: row["CPI"] for d, row in columns("wbdepth", "CPI").items()}
    _, findings, _ = report("wbdepth")
    gains = {}
    for a, b, saved in re.findall(
            r"(\d+)→(\d+)(?: entries)?(?: saves)? (\d+\.\d+)", depth):
        gains[int(a), int(b)] = saved
        assert saved == f"{cpi[int(a)] - cpi[int(b)]:.4f}", (a, b)
        cited.update((a, b, saved))
    assert gains[1, 8] == findings["gain_1_to_8"]
    assert gains[8, 16] == findings["gain_8_to_16"]
    steps = list(zip(sorted(cpi), sorted(cpi)[1:]))
    assert set(steps[:-1]) <= set(gains)
    # The knee: the first depth past which doubling saves under 0.001.
    knee = next(a for a, b in steps if cpi[a] - cpi[b] < 0.001)
    assert f"The knee is earlier, at {knee}:" in depth
    cited.add(str(knee))

    overlap = rows["drain latency overlap 0→2 cycles"]
    cpi = {o: row["CPI"]
           for o, row in columns("wboverlap", "CPI").items()}
    _, findings, _ = report("wboverlap")
    saved = f"{cpi[0] - cpi[2]:.4f}"
    assert saved == findings["gain_0_to_2"]
    assert f"saves {saved} CPI" in overlap
    cited.update(("0", "2", saved))

    coloring = rows["page coloring vs. random frames"]
    _, findings, lines = report("coloring")
    # Right-aligned labels: the longest row starts in column 0.
    (col_cpi, col_miss), (rnd_cpi, rnd_miss) = (
        line.split()[-2:] for line in lines[3:lines.index("findings:")])
    assert (col_cpi, rnd_cpi) == (findings["coloring_cpi"],
                                  findings["random_cpi"])
    claim = (f"coloring: CPI {col_cpi} / L2 miss {col_miss}; "
             f"random: {rnd_cpi} / {rnd_miss}")
    assert claim in coloring
    cited.update(numbers(claim))

    assert numbers(" ".join(" ".join(cells) for cells in rows.items())
                   ) <= cited


def test_fig4_stack_matches_report():
    cpi = {label: values[0] for label, values in labelled("fig4").items()}
    _, findings, _ = report("fig4")
    cells = measured("fig4")
    cited = set()

    def cites(component: str, claim: str) -> None:
        assert cells[component].startswith(claim), component
        cited.update(numbers(claim))

    for component in ("base (1 + CPU stalls)", "L1-I miss", "L1-D miss",
                      "L1 writes", "WB", "total CPI"):
        cites(component, rounded(cpi[component], 3))
    cites("L2-I miss + L2-D miss", f"{rounded(cpi['L2-I miss'], 3)} + "
                                   f"{rounded(cpi['L2-D miss'], 3)}")
    memory = Decimal(findings["memory_cpi"])
    paper = {cells[0]: cells[1] for cells in markdown_rows(section("fig4"))}
    ratio = memory / Decimal(paper["memory CPI"].lstrip("~"))
    cites("memory CPI", f"{rounded(memory, 3)} ✔ (≈{rounded(ratio, 1)}×)")
    fraction = Decimal(findings["write_loss_fraction"]) * 100
    cites("writes as fraction of memory loss", f"{rounded(fraction, 1)} %")
    assert numbers(" ".join(cells.values())) <= cited


def test_fig9_table_matches_report():
    table = labelled("fig9")
    _, findings, _ = report("fig9")
    split, fetch8, swap = measured("fig9").values()
    claim = (f"{rounded(findings['split_memory_improvement_pct'], 1)} % "
             f"({rounded(table['base'][1], 3)}→"
             f"{rounded(table['split L2 (32KW 2-cyc L2-I)'][1], 3)})")
    assert split.startswith(claim)
    cited = numbers(claim)
    claim = f"−{rounded(findings['fetch8_cpi_gain'], 3)} CPI"
    assert fetch8.startswith(claim)
    cited |= numbers(claim)
    claim = f"+{rounded(findings['swap_penalty_pct'], 0)} % memory CPI"
    assert swap.startswith(claim)
    cited |= numbers(claim)
    assert numbers(" ".join((split, fetch8, swap))) <= cited


def test_fig10_table_matches_report():
    _, findings, _ = report("fig10")
    fig9 = labelled("fig9")
    assert labelled("fig10")["section-8 design"] == fig9[
        "+ 8W L1 fetch/line"]
    cells = measured("fig10")
    fraction = Decimal(findings["dirty_bit_fraction_of_associative"]) * 100
    optimizations = (Decimal(fig9["base"][0])
                     - Decimal(fig9["+ 8W L1 fetch/line"][0]))
    claims = {
        "L1-I refill concurrent with WB drain": findings["i_refill_gain"],
        "loads pass stores — dirty-bit scheme":
            findings["dwb_bypass_gain_dirty_bit"],
        "dirty-bit as fraction of associative matching":
            f"{rounded(fraction, 1)} %",
        "L2-D dirty buffer": findings["l2_dirty_buffer_gain"],
        "total": f"{rounded(findings['total_gain'], 3)}, vs "
                 f"{rounded(optimizations, 3)} from Fig. 9's optimizations",
    }
    assert set(cells) == set(claims)
    cited = set()
    for mechanism, claim in claims.items():
        assert cells[mechanism].startswith(claim), mechanism
        cited |= numbers(claim)
    assert numbers(" ".join(cells.values())) <= cited


def test_fig11_table_matches_report():
    _, findings, _ = report("fig11")
    cells = measured("fig11")
    claims = {
        "memory-system improvement, base → optimized":
            f"{rounded(findings['memory_improvement_pct'], 1)} % ✔ "
            "direction (smaller magnitude, tracking the Fig. 9 gap",
        "total improvement":
            f"{rounded(findings['total_improvement_pct'], 1)} % ✔",
        "no cycle-time increase": "by construction",
    }
    assert set(cells) == set(claims)
    cited = set()
    for claim_id, claim in claims.items():
        assert cells[claim_id].startswith(claim), claim_id
        cited |= numbers(claim)
    assert numbers(" ".join(cells.values())) <= cited


def test_table1_matches_report():
    # benchmark, type, instructions, loads, stores, system calls; the
    # widest name fills its right-aligned column.
    _, findings, lines = report("table1")
    rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
    types = [line.split()[1]
             for line in lines[rule + 1:lines.index("findings:")]]
    assert len(types) == 10 and set(types) <= {"I", "S", "D"}
    doc = Cells(measured("table1"))
    doc.cites("total references",
              f"{rounded(findings['total_references_billion'], 2)} billion "
              "(paper-scale suite)")
    doc.cites("stores as fraction of instructions",
              findings["suite_store_fraction"])
    doc.cites("suite composition",
              f"{types.count('I')} integer + {len(types) - types.count('I')}"
              " FP profiles")
    assert doc.all_cited()


def test_fig2_table_matches_report():
    # level: L1-I, L1-D and L2 miss ratios, CPI
    table = report_tables("fig2")[0]
    _, findings, _ = report("fig2")
    doc = Cells(measured("fig2"))
    doc.cites("L1-I miss ratio across levels 1→16",
              f"{table['1'][0]}→{table['16'][0]} "
              f"(span {findings['l1i_span']}) ✔")
    doc.cites("L1-D miss ratio across levels",
              f"{rounded(table['1'][1], 3)}→{rounded(table['16'][1], 3)} "
              "(rises more than paper's")
    doc.cites("L2 miss ratio, low→high level",
              f"{table['2'][2]}→{table['16'][2]} from level 2→16")
    doc.cites("performance insensitive beyond level 8",
              f"CPI {rounded(table['8'][3], 2)} (8) → "
              f"{rounded(table['16'][3], 2)} (16): mild ✔")
    assert doc.all_cited()


def test_fig3_table_matches_report():
    # slice: L1-I, L1-D and L2 miss ratios, CPI
    table = report_tables("fig3")[0]
    _, findings, _ = report("fig3")
    slices = sorted(table, key=int)
    # "≥1M": every slice from 1M cycles up gives the same run.
    assert len({tuple(table[s]) for s in slices if int(s) >= 10 ** 6}) == 1
    assert table[slices[0]][3] == findings["cpi_shortest_slice"]
    assert table[slices[-1]][3] == findings["cpi_longest_slice"]
    doc = Cells(measured("fig3"))
    doc.cites("longer slices improve performance",
              f"CPI {rounded(table['10000'][3], 2)} @10k cycles → "
              f"{rounded(table['1000000'][3], 2)} @≥1M cycles ✔")
    doc.cites("too-short slices are bad",
              f"L1-D miss ratio {rounded(table['10000'][1], 2)} @10k vs "
              f"{rounded(table['1000000'][1], 2)} @1M ✔")
    assert doc.all_cited()


#: The paper column of the Fig. 7 and Fig. 8 sections, by claim.
PAPER_FIG7 = {"family spans": "0.19 → 0.02 CPI",
              "curves flatten past 64K": "fairly flat",
              "faster L2-I always helps": "monotone in access time"}
PAPER_FIG8 = {"family spans": "0.72 → 0.06 CPI",
              "still improving at 512K": "yes",
              "optimum D ≈ 8× optimum I": "yes",
              "D-side losses ≫ I-side losses": "0.72 vs 0.19 max"}


def speed_size(experiment_id: str) -> tuple:
    """``({size in K words: [CPI per access time]}, findings)`` of a
    speed-size report, and the sizes in ascending order."""
    table = report_tables(experiment_id)[0]
    _, findings, _ = report(experiment_id)
    cpi = {int(size.rstrip("K")): [Decimal(value) for value in values]
           for size, values in table.items()}
    return cpi, findings, sorted(cpi)


def knee(cpi: dict, sizes: list) -> int:
    """The first size whose doubling saves under 0.01 CPI at every
    access time."""
    return next(a for a, b in zip(sizes, sizes[1:])
                if all(x - y < Decimal("0.01")
                       for x, y in zip(cpi[a], cpi[b])))


def falls(cpi: dict, sizes: list) -> bool:
    """Whether each size in ``sizes`` beats the one before it at every
    access time."""
    return all(x > y for a, b in zip(sizes, sizes[1:])
               for x, y in zip(cpi[a], cpi[b]))


def spans(findings: dict) -> tuple:
    """The largest and smallest CPI of a report, as its findings say."""
    return Decimal(findings["max_cpi"]), Decimal(findings["min_cpi"])


def test_fig7_table_matches_report():
    cpi, findings, sizes = speed_size("fig7")
    top, bottom = spans(findings)
    assert top == max(map(max, cpi.values()))
    assert bottom == min(map(min, cpi.values()))
    assert {cells[0]: cells[1] for cells in markdown_rows(
        section("fig7"))} == PAPER_FIG7
    doc = Cells(measured("fig7"))
    paper_top = Decimal(PAPER_FIG7["family spans"].split()[0])
    doc.cites("family spans",
              f"{rounded(top, 2)} → {rounded(bottom, 2)} CPI ✔ shape "
              f"(≈{round(top / paper_top)}× the paper's level)")
    # A plateau of identical rows, then steps down at every larger size.
    first = knee(cpi, sizes)
    plateau = [size for size in sizes if cpi[size] == cpi[first]]
    after = sizes[sizes.index(plateau[-1]) + 1:]
    assert len(plateau) > 1 and after and falls(cpi, plateau[-1:] + after)
    _, fig8, _ = speed_size("fig8")
    assert (Decimal(findings["gain_64K_to_512K"])
            < Decimal(fig8["gain_64K_to_512K"]))
    doc.cites("curves flatten past 64K",
              f"plateau at {plateau[0]}–{plateau[-1]}K, further steps at "
              f"{after[0]}K+ from cross-process code retention — flatter "
              "than the data side but not fully saturated ~")
    assert all(row == sorted(row) and len(set(row)) == len(row)
               for row in cpi.values())
    doc.cites("faster L2-I always helps", "✔")
    assert doc.all_cited()


def test_fig8_table_matches_report():
    cpi, findings, sizes = speed_size("fig8")
    top, bottom = spans(findings)
    assert top == max(map(max, cpi.values()))
    assert bottom == min(map(min, cpi.values()))
    assert {cells[0]: cells[1] for cells in markdown_rows(
        section("fig8"))} == PAPER_FIG8
    doc = Cells(measured("fig8"))
    doc.cites("family spans",
              f"{rounded(top, 2)} → {rounded(bottom, 2)} CPI ✔ shape")
    assert Decimal(findings["still_improving_at_512K"]) > 0
    assert all(a > b for a, b in zip(cpi[sizes[-2]], cpi[sizes[-1]]))
    doc.cites("still improving at 512K",
              f"✔ ({sizes[-2]}K→{sizes[-1]}K still positive)")
    fig7, fig7_findings, fig7_sizes = speed_size("fig7")
    i_knee, d_knee = knee(fig7, fig7_sizes), knee(cpi, sizes)
    assert falls(cpi, sizes[:sizes.index(d_knee) + 1])
    doc.cites("optimum D ≈ 8× optimum I",
              f"I-side reaches its plateau by {i_knee}K; D-side keeps "
              f"falling through {d_knee}K ✔ (≈{d_knee // i_knee}× ratio "
              "of knees)")
    doc.cites("D-side losses ≫ I-side losses",
              f"{rounded(top, 2)} vs "
              f"{rounded(spans(fig7_findings)[0], 2)} ✔")
    assert doc.all_cited()


#: Paper Table 2 L2 miss ratios the Fig. 6 section cites, by
#: (organization, size in K words).
PAPER_TABLE2 = {("unified 1-way", 16): "0.0335", ("unified 1-way", 1024): "0.0102",
                ("split 1-way", 16): "0.0489", ("unified 1-way", 64): "0.0186",
                ("split 1-way", 64): "0.0177"}

FIG6_ORGANIZATIONS = ("unified 1-way", "unified 2-way", "split 1-way",
                      "split 2-way")


def fig6_miss_ratios() -> dict:
    """``{(organization, size in K words): miss ratio}``, from the
    report's Table 2."""
    _, table = report_tables("fig6")
    return {(org, int(size.rstrip("K"))): value
            for size, values in table.items()
            for org, value in zip(FIG6_ORGANIZATIONS, values)}


def test_fig6_miss_ratio_table_matches_report():
    miss = fig6_miss_ratios()
    for size, *cells in markdown_rows(section("fig6")):
        size = int(size.rstrip("K"))
        assert cells == [rounded(miss[org, size], 3)
                         for org in FIG6_ORGANIZATIONS], size


def test_fig6_claims_match_report():
    miss = fig6_miss_ratios()
    sizes = sorted({size for _, size in miss})
    _, findings, _ = report("fig6")
    doc = Cells(measured("fig6", table=1))
    paper_text = " ".join(cells[1] for cells in markdown_rows(
        section("fig6"), 1))
    assert all(value in " ".join((paper_text, *doc.cells.values()))
               for value in PAPER_TABLE2.values())

    unified = [miss["unified 1-way", size] for size in sizes]
    assert unified == sorted(unified, key=float, reverse=True)
    decline = float(findings["unified_1way_decline"])
    ratios = [float(miss[key]) / float(value)
              for key, value in PAPER_TABLE2.items()]
    doc.cites("miss ratio declines with size",
              f"{rounded(unified[0], 3)}→{rounded(unified[-1], 3)} "
              f"({decline:.1f}×) ✔ shape; absolute values "
              f"{min(ratios):.1f}–{max(ratios):.1f}× the paper's")

    # 2-way beats 1-way, unified and split, at every size from here up.
    better = [all(float(miss[f"{half} 2-way", size])
                  < float(miss[f"{half} 1-way", size])
                  for half in ("unified", "split")) for size in sizes]
    first = next(size for k, size in enumerate(sizes) if all(better[k:]))
    largest = sizes[-1]
    doc.cites("2-way < 1-way at equal size",
              f"✔ at ≥{first}K (e.g. {miss['unified 2-way', largest]} vs "
              f"{miss['unified 1-way', largest]} at {largest}K)")

    small = sizes[0]
    assert all(miss["split 1-way", size] > miss["unified 1-way", size]
               for size in sizes[:2])
    doc.cites("splitting hurts small caches",
              f"✔ ({rounded(miss['split 1-way', small], 3)} vs "
              f"{rounded(miss['unified 1-way', small], 3)} at {small}K; "
              f"paper: {PAPER_TABLE2['split 1-way', small]} vs "
              f"{PAPER_TABLE2['unified 1-way', small]})")

    def gap(size):
        return float(miss["split 1-way", size]) - float(
            miss["unified 1-way", size])

    assert abs(gap(64)) < 0.001 and abs(gap(largest)) < 0.001
    assert gap(256) > 0
    doc.cites("splitting helps direct-mapped ≥64K",
              f"partial: tie at 64K ({miss['split 1-way', 64]} vs "
              f"{miss['unified 1-way', 64]}) and at {largest}K; split "
              "worse at 256K.")
    doc.cites("splitting helps direct-mapped ≥64K",
              "the physical-partition benefit (Fig. 9) does not depend on "
              "it")
    assert doc.all_cited()


def test_l1size_table_matches_report():
    # size, ways: L1-I and L1-D miss ratios
    rows, findings, _ = report("l1size")
    miss = {(row[0], int(row[1])): row[2:] for row in rows}
    imr_4k, dmr_4k = miss["4K", 1]
    imr_8k, dmr_2way = miss["8K", 1][0], miss["4K", 2][1]
    assert (imr_4k, dmr_4k) == (findings["imr_4K_direct"],
                                findings["dmr_4K_direct"])
    assert Decimal(imr_4k) - Decimal(imr_8k) == Decimal(
        findings["imr_gain_8K"]) > 0
    assert Decimal(dmr_4k) - Decimal(dmr_2way) == Decimal(
        findings["dmr_gain_2way"]) > 0
    doc = Cells(measured("l1size"))
    doc.cites("bigger L1-I lowers miss ratio",
              f"{imr_4k}→{imr_8k} (4K→8K direct) ✔")
    doc.cites("2-way L1-D lowers miss ratio", f"{dmr_4k}→{dmr_2way} at 4K ✔")
    stretch_i, stretch_d = (
        rounded(Decimal(findings[f"breakeven_cycle_stretch_{key}"]) * 100, 1)
        for key in ("8K_icache", "2way_dcache"))
    doc.cites("but the gain cannot pay for the access-time cost",
              f"break-even cycle stretch: {stretch_i} % (8K I), "
              f"{stretch_d} % (2-way D)")
    assert doc.all_cited()


def paragraph(experiment_id: str) -> Cells:
    """A prose section's text below its heading, as one cell named by
    the experiment."""
    text = section(experiment_id).split("\n", 1)[1]
    return Cells({experiment_id: " ".join(text.split())})


def test_variance_matches_report():
    # metric: mean, std, min, max, CV %
    table = labelled("variance")
    _, findings, lines = report("variance")
    assert table["cpi"][4] == findings["cpi_cv_percent"]
    assert table["l2_miss_ratio"][4] == findings["l2_cv_percent"]
    doc = paragraph("variance")
    seeds = re.search(r"over (\d+) re-seeded workloads", lines[0]).group(1)
    doc.cites("variance", f"over {seeds} re-seeded workloads")
    for name, metric in (("CPI", "cpi"), ("memory CPI", "memory_cpi"),
                         ("L2 miss ratio", "l2_miss_ratio")):
        mean, std, _, _, cv = table[metric]
        doc.cites("variance", f"{name} {rounded(mean, 3)} ± "
                              f"{rounded(std, 3)} (CV {rounded(cv, 1)} %)")
    note = next(line for line in lines
                if line.startswith("notes: "))[len("notes: "):]
    doc.cites("variance", note[0].upper() + note[1:])
    assert doc.all_cited()


#: The C programs of the Table 1 suite (``repro.trace.benchmarks``).
INTEGER_CODES = ("eqntott", "espresso", "gcc", "li")


def test_perbench_matches_report():
    # benchmark: instructions, L1-I, L1-D and L2 miss ratios, CPI
    _, findings, lines = report("perbench")
    rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
    table = {row[0]: [Decimal(value) for value in row[2:4]]
             for row in map(str.split,
                            lines[rule + 1:lines.index("findings:")])}
    integer = [name for name in sorted(table) if name in INTEGER_CODES]
    fp = [name for name in sorted(table) if name not in INTEGER_CODES]
    assert len(integer) == len(fp) == 4
    i_int, i_fp = (sum(table[name][0] for name in group) / len(group)
                   for group in (integer, fp))
    l1d_int, l1d_fp = ([table[name][1] for name in group]
                       for group in (integer, fp))
    assert min(l1d_int) < min(l1d_fp) <= max(l1d_fp) < max(l1d_int)
    top = max(integer, key=lambda name: table[name][1])
    doc = paragraph("perbench")
    doc.cites("perbench",
              f"The integer codes ({', '.join(integer)}) average an L1-I "
              f"miss ratio of {rounded(i_int, 4)}, "
              f"{rounded(i_int / i_fp, 1)} times the FP codes' "
              f"({', '.join(fp)}) {rounded(i_fp, 4)}.")
    doc.cites("perbench",
              f"the FP codes' L1-D miss ratios ({min(l1d_fp)} to "
              f"{max(l1d_fp)}) lie inside the integer codes' range "
              f"({min(l1d_int)} to {max(l1d_int)}), whose top is {top}'s.")
    note = next(line for line in lines
                if line.startswith("notes: "))[len("notes: "):]
    doc.cites("perbench", f'"{note[0].upper() + note[1:]}"')
    doc.cites("perbench", f"Attribution coverage is exactly "
                          f"{findings['attribution_coverage']} of executed")
    assert doc.all_cited()


def test_clockrate_matches_report():
    # clock: slice, L1-I, L1-D and L2 miss ratios, CPI
    table = labelled("clockrate")
    _, findings, lines = report("clockrate")
    clocks = list(table)
    slow, fast = clocks[0], clocks[-1]
    l1d = [Decimal(table[clock][2]) for clock in clocks]
    cpi = [Decimal(table[clock][4]) for clock in clocks]
    assert l1d == sorted(l1d, reverse=True)
    assert cpi == sorted(cpi, reverse=True)
    assert findings["faster_is_lower"] == "1.0000"
    assert (table[slow][2], table[fast][2]) == (
        findings["l1d_slowest_clock"], findings["l1d_fastest_clock"])
    # The fastest clock is the base machine's: Fig. 4's CPI.
    assert table[fast][4] == labelled("fig4")["total CPI"][0]
    doc = paragraph("clockrate")
    paper = re.search(r"\(Section (\d+)'s observation\)", lines[0]).group(1)
    doc.cites("clockrate", f"Section {paper}'s closing remark")
    notes = next(line for line in lines if line.startswith("notes: "))
    quote = re.search(r"'(.*)'", notes).group(1)
    doc.cites("clockrate", f'"{quote}"')
    doc.cites("clockrate",
              f"L1-D miss ratio falls from {rounded(table[slow][2], 3)} at "
              f"{slow} to {rounded(table[fast][2], 3)} at the machine's "
              f"{fast}, CPI from {rounded(table[slow][4], 2)} to "
              f"{rounded(table[fast][4], 2)} ✔")
    assert doc.all_cited()


#: Each row of the ``tech`` section's table: the report row it quotes
#: and the key of the paper's value in ``paper_expectations()``.
TECH_ROWS = {
    "L1 (4 KW, GaAs, on MCM)": ("L1 (4KW)", "l1_read_cycles"),
    "L2-I (32 KW, GaAs, on MCM)": ("L2-I (32KW, on MCM)",
                                   "l2i_on_mcm_cycles"),
    "unified L2 (256 KW, BiCMOS, off MCM)": ("unified L2 (256KW)",
                                             "l2_unified_cycles"),
    "same, 2-way": ("unified L2 (256KW, 2-way)", "l2_unified_2way_cycles"),
}


def test_tech_table_matches_report():
    # component, part, mount, chips, total ns, cycles ("-": no array)
    _, findings, lines = report("tech")
    rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
    derived = {}
    for line in lines[rule + 1:lines.index("findings:")]:
        label, _, _, *values = re.split(r"\s{2,}", line.strip())
        derived[label] = values
    paper = paper_expectations()
    *arrays, memory = markdown_rows(section("tech"))
    assert [cells[0] for cells in arrays] == list(TECH_ROWS)
    for component, chips, total_ns, cycles, quoted in arrays:
        label, key = TECH_ROWS[component]
        want_chips, want_ns, want_cycles = derived[label]
        assert chips == want_chips, component
        places = len(total_ns.partition(".")[2])
        assert total_ns == rounded(want_ns, places), component
        assert (cycles, quoted) == (want_cycles, str(paper[key])), component
    clean = derived["main memory (clean miss)"]
    dirty = derived["main memory (dirty miss)"]
    assert clean[:2] == dirty[:2] == ["-", "-"]
    assert memory == [
        "main memory clean / dirty miss", "—", "—",
        f"{clean[2]} / {dirty[2]}",
        f"{paper['clean_miss_cycles']} / {paper['dirty_miss_cycles']}"]
    text = " ".join(section("tech").split())
    mismatches = Decimal(findings["mismatches_vs_paper"])
    assert f"**{mismatches:.0f} mismatches**" in text
    fraction = interconnect_fraction(MCM, 512, GAAS_1KX32.access_ns)
    assert f"({rounded(100 * fraction, 0)} % at 512 chips)" in text
