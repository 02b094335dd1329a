#!/usr/bin/env python3
"""Docs-contract checks for CI (stdlib only).

Three subcommands:

  links                 every relative markdown link in the repo's .md
                        files points at a file that exists
  catalog CATALOG.TXT   `stfm list telemetry` output and docs/METRICS.md
                        list exactly the same series patterns
  artifacts DIR         telemetry/trace JSON artifacts in DIR match the
                        schemas documented in docs/METRICS.md and
                        docs/TRACING.md, and every emitted series name
                        is documented
  devices DEVICES.TXT   `stfm list devices` output and the README's
                        device-catalog table name exactly the same
                        presets, and every preset has its JSON spec
                        file under specs/devices/
  report FILE [DIFF]    a live stfm-report-v1 artifact (and optionally
                        a stfm-reportdiff-v1 document) matches the
                        schema documented in docs/REPORTING.md,
                        field-for-field, plus that page's numeric
                        invariants
"""

import glob
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)

def normalize(name):
    """Mirror normalizeSeriesName(): digit runs -> <n>."""
    return re.sub(r"\d+", "<n>", name)

def markdown_files():
    files = glob.glob(os.path.join(REPO, "*.md"))
    files += glob.glob(os.path.join(REPO, "docs", "*.md"))
    return sorted(files)

def check_links():
    link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    bad = []
    for path in markdown_files():
        text = open(path, encoding="utf-8").read()
        # Ignore links inside fenced code blocks.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in link.findall(text):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            target = target.split("#")[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                bad.append(f"{os.path.relpath(path, REPO)} -> {target}")
    if bad:
        fail("broken markdown links:\n  " + "\n  ".join(bad))
    print(f"links OK ({len(markdown_files())} markdown files)")

def check_catalog(catalog_path):
    catalog = set()
    for line in open(catalog_path, encoding="utf-8"):
        if line.strip():
            catalog.add(line.split()[0])
    if not catalog:
        fail(f"no catalog entries parsed from {catalog_path}")

    metrics_md = open(os.path.join(REPO, "docs", "METRICS.md"),
                      encoding="utf-8").read()
    # Documented series: backticked names in table rows.
    documented = set(
        m for m in re.findall(r"\|\s*`([a-z][\w.<>]*)`\s*\|", metrics_md))

    missing = catalog - documented
    stale = documented - catalog
    if missing:
        fail("series in `stfm list telemetry` but not docs/METRICS.md: "
             + ", ".join(sorted(missing)))
    if stale:
        fail("series documented in docs/METRICS.md but not in the "
             "catalog: " + ", ".join(sorted(stale)))
    print(f"catalog OK ({len(catalog)} patterns, docs in sync)")

def check_telemetry_doc(path, documented):
    doc = json.load(open(path, encoding="utf-8"))
    if doc.get("schema") != "stfm-telemetry-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if not isinstance(doc.get("epochCycles"), int) or doc["epochCycles"] <= 0:
        fail(f"{path}: bad epochCycles")
    series = doc.get("series")
    if not series:
        fail(f"{path}: empty series list")
    cycles = doc["samples"]["cycles"]
    if cycles != sorted(set(cycles)):
        fail(f"{path}: samples.cycles not strictly increasing")
    values = doc["samples"]["values"]
    for s in series:
        name, kind = s["name"], s["kind"]
        if kind not in ("counter", "gauge"):
            fail(f"{path}: {name} has kind {kind!r}")
        column = values.get(name)
        if column is None or len(column) != len(cycles):
            fail(f"{path}: {name} column missing or misaligned")
        if name not in doc["final"]:
            fail(f"{path}: {name} missing from final")
        if normalize(name) not in documented:
            fail(f"{path}: series {name} ({normalize(name)}) is not "
                 "documented in docs/METRICS.md")
    for h in doc.get("histograms", []):
        if normalize(h["name"]) not in documented:
            fail(f"{path}: histogram {h['name']} is not documented")
    return len(series), len(cycles)

def check_trace_doc(path):
    doc = json.load(open(path, encoding="utf-8"))
    if doc.get("otherData", {}).get("schema") != "stfm-trace-v1":
        fail(f"{path}: otherData.schema missing or wrong")
    events = doc.get("traceEvents")
    if not events:
        fail(f"{path}: no traceEvents")
    last_ts = {}
    open_spans = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        lane = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if lane in last_ts and ts < last_ts[lane]:
            fail(f"{path}: ts regressed on lane {lane}")
        last_ts[lane] = ts
        if ph == "B":
            open_spans[lane] = open_spans.get(lane, 0) + 1
        elif ph == "E":
            open_spans[lane] = open_spans.get(lane, 0) - 1
            if open_spans[lane] < 0:
                fail(f"{path}: E without B on lane {lane}")
        elif ph == "X":
            if "dur" not in ev:
                fail(f"{path}: X event without dur")
        elif ph != "i":
            fail(f"{path}: unexpected phase {ph!r}")
    unbalanced = {k: v for k, v in open_spans.items() if v}
    if unbalanced:
        fail(f"{path}: unclosed spans {unbalanced}")
    return len(events)

def check_devices(devices_path):
    # `stfm list devices`: a header line starting with "name", then one
    # row per preset whose first column is the catalog name.
    catalog = set()
    for line in open(devices_path, encoding="utf-8"):
        token = line.split()[0] if line.split() else ""
        if token and token != "name":
            catalog.add(token)
    if not catalog:
        fail(f"no device rows parsed from {devices_path}")

    readme = open(os.path.join(REPO, "README.md"), encoding="utf-8").read()
    match = re.search(r"### Device catalog\n(.*?)(?:\n#|\Z)", readme,
                      flags=re.S)
    if not match:
        fail("README.md has no '### Device catalog' section")
    documented = set(
        re.findall(r"\|\s*`([A-Za-z][\w-]*)`\s*\|", match.group(1)))

    missing = catalog - documented
    stale = documented - catalog
    if missing:
        fail("devices in `stfm list devices` but not the README "
             "catalog: " + ", ".join(sorted(missing)))
    if stale:
        fail("devices documented in the README catalog but not in "
             "`stfm list devices`: " + ", ".join(sorted(stale)))
    for name in sorted(catalog):
        spec = os.path.join(REPO, "specs", "devices", f"{name}.json")
        if not os.path.exists(spec):
            fail(f"built-in device {name} has no spec file at "
                 f"specs/devices/{name}.json")
    print(f"devices OK ({len(catalog)} presets, README and "
          "specs/devices/ in sync)")

def check_artifacts(directory):
    metrics_md = open(os.path.join(REPO, "docs", "METRICS.md"),
                      encoding="utf-8").read()
    documented = set(
        re.findall(r"\|\s*`([a-z][\w.<>]*)`\s*\|", metrics_md))

    telemetry = sorted(glob.glob(os.path.join(directory,
                                              "*_telemetry*.json")))
    traces = sorted(glob.glob(os.path.join(directory, "*.trace.*.json")))
    traces += sorted(p for p in
                     glob.glob(os.path.join(directory, "*.trace.json"))
                     if p not in traces)
    if not telemetry:
        fail(f"no telemetry artifacts found in {directory}")
    if not traces:
        fail(f"no trace artifacts found in {directory}")
    for path in telemetry:
        nseries, nsamples = check_telemetry_doc(path, documented)
        print(f"telemetry OK: {os.path.basename(path)} "
              f"({nseries} series, {nsamples} samples)")
    for path in traces:
        nevents = check_trace_doc(path)
        print(f"trace OK: {os.path.basename(path)} ({nevents} events)")

DIFF_KINDS = {
    "workload-unfairness", "group-unfairness-p95",
    "group-unfairness-p99", "group-slowdown-p99", "group-failures",
    "missing-group", "missing-workload",
}

def reporting_md_fields():
    """Parse docs/REPORTING.md's field tables.

    Returns (report_fields, diff_fields): each a dict of documented
    field path -> {"type": ..., "optional": ...}. Distribution-typed
    rows ("groups[].unfairness" et al.) are expanded with the fields
    of the shared distribution-block table.
    """
    text = open(os.path.join(REPO, "docs", "REPORTING.md"),
                encoding="utf-8").read()
    row = re.compile(r"^\|\s*`([A-Za-z][\w.\[\]]*)`\s*\|"
                     r"\s*([^|]+?)\s*\|(.*)$", re.M)

    sections = {}
    for chunk in text.split("\n## "):
        title = chunk.split("\n", 1)[0]
        sections[title] = chunk
    report_text = sections.get("The `stfm-report-v1` document")
    diff_text = sections.get("The `stfm-reportdiff-v1` document")
    if not report_text or not diff_text:
        fail("docs/REPORTING.md is missing a schema section")

    def parse(section):
        fields = {}
        for path, ftype, rest in row.findall(section):
            fields[path] = {"type": ftype,
                            "optional": "optional" in rest}
        return fields

    report = parse(report_text)
    diff = parse(diff_text)

    # The distribution-block table documents bare field names shared
    # by every row whose type column says "distribution"; expand them
    # onto those paths.
    dist_fields = {p: meta for p, meta in report.items() if "." not in p
                   and "[" not in p and p not in ("schema", "name")}
    dist_parents = [p for p, meta in report.items()
                    if meta["type"] == "distribution"]
    if not dist_parents or "samples" not in dist_fields:
        fail("docs/REPORTING.md: distribution table not found")
    for bare in dist_fields:
        del report[bare]
    for parent in dist_parents:
        del report[parent]  # Structural: implied by the expansion.
        for bare, meta in dist_fields.items():
            report[f"{parent}.{bare}"] = meta
    return report, diff

def leaf_paths(node, prefix=""):
    """The artifact's leaf field paths, array hops normalized to []."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{prefix}.{key}" if prefix else key
            paths |= leaf_paths(value, child)
    elif isinstance(node, list):
        scalars = [x for x in node
                   if not isinstance(x, (dict, list))]
        if len(scalars) == len(node):
            paths.add(prefix)  # Array of scalars: the field is the leaf.
        else:
            for item in node:
                paths |= leaf_paths(item, prefix + "[]")
    else:
        paths.add(prefix)
    return paths

def check_distribution(where, dist):
    count = dist["count"]
    if len(dist["samples"]) != count:
        fail(f"{where}: count != len(samples)")
    if dist["samples"] != sorted(dist["samples"]):
        fail(f"{where}: samples not ascending")
    if count and not (dist["min"] <= dist["p50"] <= dist["p95"]
                      <= dist["p99"] <= dist["max"]):
        fail(f"{where}: percentiles not monotone")

def check_report_doc(path, documented):
    doc = json.load(open(path, encoding="utf-8"))
    if doc.get("schema") != "stfm-report-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")

    present = leaf_paths(doc)
    undocumented = present - set(documented)
    if undocumented:
        fail(f"{path}: fields not documented in docs/REPORTING.md: "
             + ", ".join(sorted(undocumented)))
    # Required fields must appear — structural array rows (path ends
    # in []) are implied by their children and may be empty.
    missing = {p for p, meta in documented.items()
               if not meta["optional"] and not p.endswith("[]")
               and p not in present}
    if missing:
        fail(f"{path}: documented fields missing from the artifact: "
             + ", ".join(sorted(missing)))

    totals = doc["totals"]
    groups = doc["groups"]
    for agg, per_group in (
            ("runs", "runs"), ("failed", "failed")):
        if totals[agg] != sum(g[per_group] for g in groups):
            fail(f"{path}: totals.{agg} != sum over groups")
    if totals["groups"] != len(groups):
        fail(f"{path}: totals.groups != len(groups)")
    for g in groups:
        where = f"{path}: group {g['scheduler']}/{g['device'] or '-'}"
        for metric in ("unfairness", "slowdown", "weightedSpeedup"):
            check_distribution(f"{where} {metric}", g[metric])
        for field in ("runs", "failed"):
            if g[field] != sum(w[field] for w in g["workloads"]):
                fail(f"{where}: {field} != sum over workloads")
    print(f"report OK: {os.path.basename(path)} ({totals['runs']} runs, "
          f"{totals['groups']} groups, {len(present)} leaf fields)")

def check_diff_doc(path, documented):
    doc = json.load(open(path, encoding="utf-8"))
    if doc.get("schema") != "stfm-reportdiff-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    present = leaf_paths(doc)
    # A clean diff's empty `regressions` list has no entry fields; it
    # is the array itself, not an undocumented scalar leaf.
    present.discard("regressions")
    undocumented = present - set(documented)
    if undocumented:
        fail(f"{path}: fields not documented in docs/REPORTING.md: "
             + ", ".join(sorted(undocumented)))
    missing = {p for p, meta in documented.items()
               if not meta["optional"] and not p.endswith("[]")
               and p not in present and not p.startswith("regressions[]")}
    # Regression-entry fields are only observable when regressions
    # exist; require them in that case.
    if doc["regressions"]:
        missing |= {p for p, meta in documented.items()
                    if p.startswith("regressions[]")
                    and not meta["optional"] and p not in present}
    if missing:
        fail(f"{path}: documented fields missing from the artifact: "
             + ", ".join(sorted(missing)))
    if doc["regressed"] != bool(doc["regressions"]):
        fail(f"{path}: regressed flag disagrees with regressions list")
    for entry in doc["regressions"]:
        if entry["kind"] not in DIFF_KINDS:
            fail(f"{path}: unknown regression kind {entry['kind']!r}")
    print(f"diff OK: {os.path.basename(path)} "
          f"({len(doc['regressions'])} regressions, "
          f"{doc['comparedGroups']} groups compared)")

def check_report(report_path, diff_path=None):
    report_fields, diff_fields = reporting_md_fields()
    check_report_doc(report_path, report_fields)
    if diff_path:
        check_diff_doc(diff_path, diff_fields)

def main():
    if len(sys.argv) < 2:
        fail(f"usage: {sys.argv[0]} "
             "links|catalog FILE|artifacts DIR|devices FILE|"
             "report FILE [DIFF]")
    cmd = sys.argv[1]
    if cmd == "links":
        check_links()
    elif cmd == "catalog" and len(sys.argv) == 3:
        check_catalog(sys.argv[2])
    elif cmd == "artifacts" and len(sys.argv) == 3:
        check_artifacts(sys.argv[2])
    elif cmd == "devices" and len(sys.argv) == 3:
        check_devices(sys.argv[2])
    elif cmd == "report" and len(sys.argv) in (3, 4):
        check_report(sys.argv[2], sys.argv[3] if len(sys.argv) == 4
                     else None)
    else:
        fail(f"unknown command {cmd!r}")

if __name__ == "__main__":
    main()
