"""DOT (graphviz) export of models: worlds grouped by settledness class,
solid successor edges, choice cells as sub-clusters, epistemic cells as
dashed chains.  Output is deterministic for a given model.
"""

from __future__ import annotations


def _quote(s):
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(m):
    lines = ["digraph kxstit {", "  rankdir=BT;", "  node [shape=box, fontsize=10];"]
    for bi, box in enumerate(m.r_box):
        lines.append(f"  subgraph cluster_box{bi} {{")
        lines.append(f"    label=\"class {min(box)}\";")
        lines.append("    style=rounded;")
        cells = {}
        for w in sorted(box):
            key = tuple(min(m.choice_cell(a, w)) for a in m.agents)
            cells.setdefault(key, []).append(w)
        for ci, (key, ws) in enumerate(sorted(cells.items())):
            lines.append(f"    subgraph cluster_box{bi}_cell{ci} {{")
            lines.append("      style=dashed;")
            for w in ws:
                props = sorted(p for p in m.valuation if m.holds(p, w))
                label = w if not props else f"{w}\\n{' '.join(props)}"
                lines.append(f"      {_quote(w)} [label={_quote(label)}];")
            lines.append("    }")
        lines.append("  }")
    for w in m.worlds:
        lines.append(f"  {_quote(w)} -> {_quote(m.succ[w])};")
    for a, cells in sorted(m.epistemic.items()):
        for cell in cells:
            ws = sorted(cell)
            for u, v in zip(ws, ws[1:]):
                lines.append(f"  {_quote(u)} -> {_quote(v)} "
                             f"[style=dashed, dir=none, color=blue, label={_quote(a)}, fontsize=8];")
    lines.append("}")
    return "\n".join(lines) + "\n"
