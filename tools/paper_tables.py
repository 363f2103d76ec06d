#!/usr/bin/env python3
"""Generates EXPERIMENTS.md's measured tables from BENCH_paper.json.

Usage:
    python3 tools/paper_tables.py EXPERIMENTS.md          # rewrite in place
    python3 tools/paper_tables.py --check EXPERIMENTS.md  # exit 1 on a diff

Each table sits between `<!-- paper:NAME -->` and `<!-- /paper:NAME -->`,
where NAME is one exhibit section of BENCH_paper.json (written by
`bench/snapshot OUT paper`). The JSON is read from the document's
directory. Every exhibit must have exactly one block, and every block must
name an exhibit. Columns print at the precision the exhibit is reported at.
"""
import argparse
import json
import os
import re
import sys

BLOCK = re.compile(r"(<!-- paper:(\w+) -->\n)(.*?)(<!-- /paper:\2 -->)",
                   re.DOTALL)


def col(header, key, spec="{}"):
    return header, lambda row: spec.format(row[key])


def payload(header, key):
    return header, lambda row: "assembled" if row[key] else "failed"


def lookups_per_kinstr(row):
    return "{:.2f}".format(
        1000.0 * row["drc64_lookups"] / max(1, row["drc64_instructions"]))


APP = col("app", "app")

# Exhibit -> (columns, summary line or None). A column is (header, cell
# function of the row); the summary is a function of the whole section.
TABLES = {
    "fig02_emulation": (
        [APP, col("native CPI", "native_cpi", "{:.3f}"),
         col("emu cycles/instr", "emu_cycles_per_instr", "{:.1f}"),
         col("slowdown", "slowdown", "{:.1f}×")],
        lambda s: "Average slowdown: {:.3f}×.".format(s["average_slowdown"])),
    "fig03_naive_cache": (
        [APP, col("IL1 miss (×)", "il1_miss_ratio", "{:.1f}"),
         col("prefetch miss (+pp)", "prefetch_miss_pp", "{:.1f}"),
         col("L2 reads (+%)", "l2_pressure_pct", "{:.1f}")],
        lambda s: ("Averages: IL1 miss ratio {:.1f}×, prefetch miss "
                   "+{:.1f} pp, L2 pressure +{:.0f} %.").format(
                       s["average_il1_miss_ratio"],
                       s["average_prefetch_miss_pp"],
                       s["average_l2_pressure_pct"])),
    "fig04_naive_ipc": (
        [APP, col("base IPC", "base_ipc", "{:.3f}"),
         col("naive IPC", "naive_ipc", "{:.3f}"),
         col("normalized", "normalized", "{:.3f}")],
        lambda s: "Average normalized IPC: {:.3f}.".format(
            s["average_normalized"])),
    "table1_comparison": (
        [col("layout", "layout"),
         col("IL1 miss (%)", "il1_miss_pct", "{:.2f}"),
         col("prefetch useful (%)", "prefetch_useful_pct", "{:.0f}"),
         col("IPC", "ipc", "{:.3f}")],
        lambda s: ("App: {}. Both randomized layouts relocate {:.1f} % of "
                   "its instructions.").format(s["app"], s["relocated_pct"])),
    "table2_static_analysis": (
        [APP, col("instructions", "instructions"),
         col("direct transfers", "direct_transfers"),
         col("indirect transfers", "indirect_transfers"),
         col("calls", "calls"), col("indirect calls", "indirect_calls")],
        None),
    "fig09_functions": (
        [APP, col("functions", "functions"), col("with ret", "with_ret"),
         col("without ret", "without_ret")],
        None),
    "fig11_gadgets": (
        [APP, col("gadgets before", "before"), col("after", "after"),
         col("removed (%)", "removed_pct", "{:.1f}"),
         payload("payload before", "payload_pre"),
         payload("payload after", "payload_post")],
        lambda s: ("Average removal: {:.1f} %. Payloads assemble for {} of "
                   "{} apps before randomization and {} after.").format(
                       s["average_removed_pct"], s["payloads_pre"],
                       len(s["rows"]), s["payloads_post"])),
    "fig12_speedup": (
        [APP, col("naive IPC", "naive_ipc", "{:.3f}"),
         col("VCFR IPC", "vcfr_ipc", "{:.3f}"),
         col("speedup", "speedup", "{:.2f}×")],
        lambda s: "Average speedup: {:.3f}×.".format(s["average_speedup"])),
    "fig13_drc_ipc": (
        [APP, col("base IPC", "base_ipc", "{:.3f}"),
         col("DRC-512", "drc512", "{:.3f}"),
         col("DRC-128", "drc128", "{:.3f}"),
         col("DRC-64", "drc64", "{:.3f}")],
        lambda s: ("Averages: DRC-512 {:.3f}, DRC-128 {:.3f}, DRC-64 {:.3f} "
                   "(slowdowns {:.1f} % / {:.1f} % / {:.1f} %).").format(
                       s["average_drc512"], s["average_drc128"],
                       s["average_drc64"], 100 * (1 - s["average_drc512"]),
                       100 * (1 - s["average_drc128"]),
                       100 * (1 - s["average_drc64"]))),
    "fig14_drc_missrate": (
        [APP, col("DRC-512 miss (%)", "drc512_miss_pct", "{:.1f}"),
         col("DRC-64 miss (%)", "drc64_miss_pct", "{:.1f}"),
         ("lookups/k-instr", lookups_per_kinstr)],
        lambda s: "Averages: DRC-512 {:.1f} %, DRC-64 {:.1f} %.".format(
            s["average_drc512_miss_pct"], s["average_drc64_miss_pct"])),
    "fig15_power": (
        [APP, col("CPU dyn (µJ)", "cpu_dyn_uj", "{:.1f}"),
         col("DRC dyn (µJ)", "drc_dyn_uj", "{:.3f}"),
         col("overhead (%)", "overhead_pct", "{:.3f}")],
        lambda s: "Average overhead: {:.3f} %.".format(
            s["average_overhead_pct"])),
    "ablation_return_options": (
        [APP, col("code growth (%)", "expansion_pct", "{:.1f}"),
         col("dyn. instrs (+%)", "instr_inflation_pct", "{:.1f}"),
         col("IPC sw", "ipc_sw", "{:.3f}"),
         col("IPC arch", "ipc_arch", "{:.3f}"),
         col("covered sw (%)", "cover_sw_pct", "{:.0f}"),
         col("covered arch (%)", "cover_arch_pct", "{:.0f}")],
        lambda s: "Average code growth under option 1: {:.3f} %.".format(
            s["average_expansion_pct"])),
    "ablation_page_confined": (
        [APP, col("iTLB miss full (%)", "itlb_miss_pct_full", "{:.2f}"),
         col("iTLB miss page (%)", "itlb_miss_pct_page", "{:.2f}"),
         col("IPC full", "ipc_full", "{:.3f}"),
         col("IPC page", "ipc_page", "{:.3f}"),
         col("entropy full (bits)", "entropy_bits_full", "{:.1f}")],
        lambda s: "Page-confined entropy: {:.1f} bits for every app.".format(
            s["entropy_bits_page"])),
    "ablation_drc_backing": (
        [APP, col("IPC shared", "ipc_shared", "{:.3f}"),
         col("IPC +L2 DRC", "ipc_dedicated", "{:.3f}"),
         col("gain (%)", "gain_pct", "{:.2f}"),
         col("walks shared", "walks_shared"),
         col("walks +L2 DRC", "walks_dedicated")],
        None),
    "ablation_context_switch": (
        [col("quantum (translations)", "quantum"),
         col("miss (%)", "miss_pct", "{:.2f}"),
         col("miss without flush (%)", "miss_pct_no_flush", "{:.2f}")],
        lambda s: "Event streams: gcc {} and xalan {} translations.".format(
            s["gcc_translations"], s["xalan_translations"])),
    "fleet_context_switch": (
        [col("slice", "slice"), col("fleet IPC", "fleet_ipc", "{:.3f}"),
         col("switches", "switches"), col("DRC lost", "drc_lost"),
         col("bitmap lost", "bitmap_lost"),
         col("shared-L2 miss (%)", "sl2_miss_pct", "{:.2f}"),
         col("avg slowdown", "avg_slowdown", "{:.2f}×")],
        None),
    "future_superscalar": (
        [APP, col("width", "width"), col("base IPC", "base_ipc", "{:.3f}"),
         col("VCFR IPC", "vcfr_ipc", "{:.3f}"),
         col("overhead (%)", "overhead_pct", "{:.2f}")],
        None),
    "future_ooo": (
        [APP, col("OOO base IPC", "base_ipc", "{:.3f}"),
         col("OOO VCFR IPC", "vcfr_ipc", "{:.3f}"),
         col("OOO overhead (%)", "overhead_pct", "{:.2f}"),
         col("in-order overhead (%)", "in_order_overhead_pct", "{:.2f}")],
        lambda s: "Average overhead: OOO {:.2f} %, in-order {:.2f} %.".format(
            s["average_overhead_pct"], s["average_in_order_overhead_pct"])),
}


def render(name, section):
    columns, summary = TABLES[name]
    lines = ["| " + " | ".join(h for h, _ in columns) + " |",
             "|" + "---|" * len(columns)]
    for row in section["rows"]:
        lines.append("| " + " | ".join(cell(row) for _, cell in columns) +
                     " |")
    if summary is not None:
        lines += ["", summary(section)]
    return "\n".join(lines) + "\n"


def regenerate(text, sections):
    """Returns `text` with every block regenerated, or raises ValueError."""
    seen = []

    def fill(m):
        name = m.group(2)
        if name not in sections:
            raise ValueError(f"block '{name}' names no exhibit")
        seen.append(name)
        return m.group(1) + render(name, sections[name]) + m.group(4)

    out = BLOCK.sub(fill, text)
    for name in sections:
        if seen.count(name) != 1:
            raise ValueError(f"exhibit '{name}' has {seen.count(name)} "
                             "blocks (want 1)")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if any table differs instead of rewriting")
    ap.add_argument("doc")
    args = ap.parse_args()

    json_path = os.path.join(os.path.dirname(os.path.abspath(args.doc)),
                             "BENCH_paper.json")
    with open(json_path) as f:
        sections = json.load(f)["simulated"]
    sections.pop("config")
    unknown = sorted(set(sections) - set(TABLES))
    if unknown:
        sys.exit(f"paper_tables: no table layout for {', '.join(unknown)}")
    with open(args.doc) as f:
        text = f.read()
    try:
        fresh = regenerate(text, sections)
    except ValueError as e:
        sys.exit(f"paper_tables: {args.doc}: {e}")

    if args.check:
        stale = [m.group(2) for m, n in zip(BLOCK.finditer(text),
                                            BLOCK.finditer(fresh))
                 if m.group(0) != n.group(0)]
        if stale:
            print(f"paper_tables: {args.doc} is stale in: "
                  f"{', '.join(stale)} (regenerate with "
                  f"python3 tools/paper_tables.py {args.doc})")
            return 1
        return 0
    if fresh != text:
        with open(args.doc, "w") as f:
            f.write(fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
