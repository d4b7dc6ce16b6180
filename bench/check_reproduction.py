#!/usr/bin/env python3
"""Checks EXPERIMENTS.md against a reproduction run.

Usage: check_reproduction.py REPRODUCE.json EXPERIMENTS.md

EXPERIMENTS.md holds blocks `<!-- reproduce: NAME -->` ... `<!-- /reproduce -->`
rendered from bench/reproduce's REPRODUCE.json: NAME is a section title (its
rows) or "† " + a section title (its † rows). The check fails when a verdict
is not the one its value, band and shape give, when a section or its † rows
have no block (or a block names none), or when a block differs from the run.
The diff that fixes the document goes to stdout, for `| patch EXPERIMENTS.md`.
"""

import difflib
import json
import math
import re
import sys

BLOCK = re.compile(
    r"^([ \t]*)<!-- reproduce: ([^\n]+) -->\n(.*?)^\1<!-- /reproduce -->$", re.M | re.S
)


def verdict(row):
    """The one verdict rule, as Judge in src/analysis/report.cc applies it."""
    band, value = row["band"], row["measured"]
    if band is None:
        return None
    lo = -math.inf if band["lo"] is None else band["lo"]
    hi = math.inf if band["hi"] is None else band["hi"]
    if value is not None and (lo < value < hi if band["open"] else lo <= value <= hi):
        return "✓"
    return "shape" if row["shape"] and row["shape"]["holds"] else "†"


def render(rows, deviations):
    """A section's table, or (deviations) its † rows without the verdict."""
    header = ["metric", "paper", "measured", "value", "band"] + ([] if deviations else ["verdict"])
    out = ["| " + " | ".join(header) + " | note |", "|" + "---|" * (len(header) + 1)]
    for r in rows:
        value = "" if r["measured"] is None else "%.6g" % r["measured"]
        cells = [r["metric"], r["paper"], r["text"], value, r["band"]["text"] if r["band"] else ""]
        cells += ([] if deviations else [r["verdict"] or ""]) + [r["note"]]
        out.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    return "".join(line + "\n" for line in out)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        rows = json.load(f)["rows"]
    with open(argv[2], encoding="utf-8") as f:
        doc = f.read()
    errors = [] if rows else [f"{argv[1]}: no rows"]
    blocks = {}
    for row in rows:
        blocks.setdefault(row["section"], ([], False))[0].append(row)
        if row["verdict"] == "†":
            blocks.setdefault("† " + row["section"], ([], True))[0].append(row)
        if row["verdict"] != verdict(row):
            errors.append(f'{row["section"]} / {row["metric"]}: verdict {row["verdict"]!r}, but '
                          f'value {row["measured"]} against band {row["band"]} '
                          f'gives {verdict(row)!r}')
    names = [m.group(2) for m in BLOCK.finditer(doc)]
    errors += [f"{argv[2]}: '{n}' has {names.count(n)} blocks, wants {int(n in blocks)}"
               for n in set(names) | set(blocks)
               if names.count(n) != (n in blocks)]

    def regenerate(match):
        indent, name = match.group(1), match.group(2)
        if name not in blocks:
            return match.group(0)
        body = "".join(indent + line for line in render(*blocks[name]).splitlines(True))
        return f"{indent}<!-- reproduce: {name} -->\n{body}{indent}<!-- /reproduce -->"

    expected = BLOCK.sub(regenerate, doc)
    if expected != doc:
        errors.append(f"{argv[2]}: blocks differ from the run (the diff is on stdout)")
        sys.stdout.writelines(difflib.unified_diff(doc.splitlines(True),
                                                   expected.splitlines(True), argv[2], argv[2]))
    for error in errors:
        print("error: " + error, file=sys.stderr)
    if errors:
        return 1
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("✓", "shape", "†")}
    print(f"{argv[2]} matches {argv[1]}: {len(rows)} rows "
          f"({counts['✓']} ✓, {counts['shape']} shape, {counts['†']} †)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
