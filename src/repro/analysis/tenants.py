"""Tenant report analysis: tables, rollups, consistency, determinism.

Consumes the JSON report of a :class:`repro.service.MemoryService` run
and renders the accounting-side views the ``tenants`` CLI command
prints: a per-tenant table, per-priority-class rollups with pooled
latency percentiles, and the billing consistency check (per-tenant
integers summing exactly to the pool-wide counters).

:func:`deterministic_view` strips the report's wall-clock-derived
fields (spin-up milliseconds) — what remains is a pure function of
(config, tenant specs), which is exactly what the determinism tests
compare across repeated runs and against the tests' full-walk
reference.

PR 8 adds the reliability views: :func:`slo_report` (per-class success
rate, deadline misses and error-budget burn against the class SLO
targets) and :func:`audit_report` (the end-of-serve invariant auditor:
every admitted tenant terminates exactly once in a terminal status,
per-tenant conservation ``requests_sent == responses + lost_inflight``
holds, and the admission queue fully drained).
"""

from __future__ import annotations

import copy
import math
from typing import List, Tuple

#: Success-rate SLO target per priority class (fraction of admitted
#: tenants that must complete ``done``); classes outside this map get
#: the bronze target.
SLO_TARGETS = {"gold": 0.999, "silver": 0.99, "bronze": 0.95}

#: Statuses an account must terminate in (mirrors
#: :data:`repro.service.accounting.TERMINAL_STATUSES`; duplicated here
#: so report analysis stays import-light).
_TERMINAL = frozenset(
    ("done", "link_failed", "watchdog", "crashed", "no_capacity", "rejected")
)


def slo_report(report: dict) -> dict:
    """Per-class SLO attainment from a service report.

    For each priority class: tenants admitted (not ``rejected``),
    successes (``done``), the success rate against the class target,
    deadline misses, and error-budget burn — the fraction of the
    class's failure allowance actually consumed (>1 means the SLO was
    violated).
    """
    tenants = report["accounting"]["tenants"].values()
    out: dict = {}
    for acct in tenants:
        klass = acct["class"]
        row = out.setdefault(klass, {
            "target": SLO_TARGETS.get(klass, SLO_TARGETS["bronze"]),
            "admitted": 0,
            "succeeded": 0,
            "failed": 0,
            "deadline_misses": 0,
            "failovers": 0,
        })
        if acct["status"] == "rejected":
            continue
        row["admitted"] += 1
        if acct["status"] == "done":
            row["succeeded"] += 1
        else:
            row["failed"] += 1
        row["deadline_misses"] += acct.get("deadline_misses", 0)
        row["failovers"] += acct.get("failovers", 0)
    for row in out.values():
        admitted = row["admitted"]
        rate = row["succeeded"] / admitted if admitted else 1.0
        row["success_rate"] = round(rate, 6)
        row["met"] = rate >= row["target"]
        # Error budget: allowed failures = (1 - target) * admitted.
        budget = (1.0 - row["target"]) * admitted
        row["error_budget_burn"] = (
            round(row["failed"] / budget, 4) if budget > 0
            else (0.0 if row["failed"] == 0 else math.inf)
        )
    return out


def audit_report(report: dict) -> dict:
    """End-of-serve invariant audit (``ok`` is the headline verdict).

    Violations checked, per tenant and pool-wide:

    * every account terminated exactly once, in a terminal status;
    * conservation: ``requests_sent == responses + lost_inflight`` and
      ``errors <= responses``;
    * admission bookkeeping: ``registered == granted + rejected`` and
      nothing left waiting or parked.
    """
    violations: List[str] = []
    for tid, acct in sorted(report["accounting"]["tenants"].items()):
        status = acct["status"]
        terms = acct.get("terminations", 0)
        if status not in _TERMINAL:
            violations.append(f"{tid}: non-terminal status {status!r}")
        if terms != 1:
            violations.append(f"{tid}: terminated {terms} times (want 1)")
        sent = acct["requests_sent"]
        answered = acct["responses"] + acct.get("lost_inflight", 0)
        if sent != answered:
            violations.append(
                f"{tid}: conservation broken — {sent} sent != "
                f"{acct['responses']} responses + "
                f"{acct.get('lost_inflight', 0)} lost_inflight"
            )
        if acct["errors"] > acct["responses"]:
            violations.append(
                f"{tid}: {acct['errors']} errors > "
                f"{acct['responses']} responses"
            )
    adm = report["admission"]
    if adm["registered"] != adm["granted"] + adm["rejected"]:
        violations.append(
            f"admission: {adm['registered']} registered != "
            f"{adm['granted']} granted + {adm['rejected']} rejected"
        )
    if adm.get("waiting", 0):
        violations.append(f"admission: {adm['waiting']} tickets left waiting")
    if adm.get("parked", 0):
        violations.append(f"admission: {adm['parked']} tickets left parked")
    return {"ok": not violations, "violations": violations}


def deterministic_view(report: dict, ignore_config: bool = False) -> dict:
    """The report minus wall-clock fields (and, optionally, the config
    block — for comparing runs whose configs differ by design)."""
    view = copy.deepcopy(report)
    view.pop("spin_up", None)
    if ignore_config:
        view.pop("config", None)
    for acct in view.get("accounting", {}).get("tenants", {}).values():
        acct.pop("lease_spin_up_ms", None)
    return view


def check_consistency(report: dict) -> List[str]:
    """Names of consistency invariants the report fails (empty = good)."""
    cons = report.get("consistency", {})
    return [k for k, ok in sorted(cons.items())
            if k.endswith("_match") and not ok]


def _fmt(v) -> str:
    if isinstance(v, float):
        return "-" if math.isnan(v) else f"{v:.1f}"
    return f"{v:,}"


def render_tenant_table(report: dict, limit: int = 0) -> str:
    """Fixed-width per-tenant table, worst latency first."""
    tenants = report["accounting"]["tenants"]
    rows: List[Tuple] = []
    for tid, a in tenants.items():
        lat = a["latency"]
        p99 = lat.get("p99", float("nan"))
        rows.append((
            tid, a["class"], a["status"],
            f"{a['shard']}/{a['slot']}" if a["shard"] >= 0 else "-",
            a["requests_sent"], a["responses"], a["errors"],
            a["slot_cycles"],
            a["hostlink_retries"] + a["shared_retries"],
            lat.get("p50", float("nan")), p99,
        ))
    rows.sort(key=lambda r: (-(r[10] if r[10] == r[10] else -1.0), r[0]))
    if limit:
        rows = rows[:limit]
    header = (f"{'tenant':<8} {'class':<7} {'status':<12} {'shard':<6} "
              f"{'reqs':>7} {'resps':>7} {'errs':>5} {'cycles':>9} "
              f"{'retries':>7} {'p50':>7} {'p99':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r[0]:<8} {r[1]:<7} {r[2]:<12} {r[3]:<6} "
            f"{r[4]:>7,} {r[5]:>7,} {r[6]:>5,} {r[7]:>9,} "
            f"{r[8]:>7,} {_fmt(r[9]):>7} {_fmt(r[10]):>7}"
        )
    if limit and len(tenants) > limit:
        lines.append(f"... ({len(tenants) - limit} more tenants)")
    return "\n".join(lines)


def render_class_rollup(report: dict) -> str:
    """Per-priority-class rollup with pooled latency percentiles."""
    classes = report["accounting"]["classes"]
    lines = ["per-class rollup:"]
    for name in ("gold", "silver", "bronze"):
        row = classes.get(name)
        if row is None:
            continue
        lat = row["latency"]
        lines.append(
            f"  {name:<7} tenants={row['tenants']:<4} "
            f"reqs={row['requests_sent']:<8,} "
            f"cycles={row['slot_cycles']:<10,} "
            f"retries={row['hostlink_retries'] + row['shared_retries']:<6,} "
            f"lat p50={_fmt(lat.get('p50', float('nan')))} "
            f"p99={_fmt(lat.get('p99', float('nan')))}"
        )
    # Classes beyond the standard three (custom TENANT_CLASSES).
    for name in sorted(set(classes) - {"gold", "silver", "bronze"}):
        row = classes[name]
        lines.append(
            f"  {name:<7} tenants={row['tenants']:<4} "
            f"reqs={row['requests_sent']:,}"
        )
    return "\n".join(lines)


def render_service_summary(report: dict) -> str:
    """Headline block: admission, pool shape, consistency verdict."""
    adm = report["admission"]
    totals = report["accounting"]["totals"]
    spin = report.get("spin_up", {})
    failed = check_consistency(report)
    lines = [
        f"tenants: {totals['tenants']} registered "
        f"({adm['granted']} granted, {adm['rejected']} rejected)",
        f"pool: {len(report['shards'])} shard(s) x "
        f"{report['config']['slots_per_shard']} slot(s)",
        f"traffic: {totals['requests_sent']:,} requests, "
        f"{totals['responses']:,} responses, {totals['errors']:,} errors, "
        f"{totals['slot_cycles']:,} tenant-cycles",
        f"faults: {totals['hostlink_retries']:,} host-link retries, "
        f"{totals['shared_retries']:,} shared chain retries, "
        f"{totals['degraded_cycles']:,} degraded tenant-cycles",
    ]
    warm = spin.get("warm", {})
    if warm.get("count"):
        lines.append(f"spin-up: x{warm['count']} mean {warm['mean_ms']:.1f}ms "
                     f"(template {spin.get('template_ms', 0):.1f}ms)")
    recovery = report.get("recovery", {})
    if recovery.get("crashes") or recovery.get("failovers"):
        lines.append(
            f"recovery: {recovery.get('crashes', 0)} crash(es), "
            f"{recovery.get('recoveries', 0)} epoch restore(s), "
            f"{recovery.get('failovers', 0)} failover(s), "
            f"{recovery.get('replayed_requests', 0):,} replayed, "
            f"{recovery.get('lost_inflight', 0):,} lost in flight"
        )
    slo = report.get("slo")
    if slo:
        parts = []
        for name in sorted(slo, key=lambda n: slo[n]["target"], reverse=True):
            row = slo[name]
            verdict = "met" if row["met"] else "MISSED"
            parts.append(f"{name} {row['success_rate']:.4f} ({verdict})")
        lines.append(f"slo: {', '.join(parts)}")
    audit = report.get("audit")
    if audit is not None:
        lines.append(
            "audit: OK (every admitted tenant terminated exactly once)"
            if audit["ok"] else
            f"audit: FAILED {audit['violations']}"
        )
    lines.append(
        "accounting consistency: OK (per-tenant sums equal pool totals)"
        if not failed else
        f"accounting consistency: FAILED {failed}"
    )
    return "\n".join(lines)
