"""Per-layer metrics from one traced episode.

Counts repeat exactly for a seed: the traced process records spans over
exactly one episode, which is deterministic.  Times (``*_s``) are host
seconds spent in that episode.  ``README.md`` says which end-to-end metric
each layer metric should move, and on which workload.
"""

from __future__ import annotations

import hashlib
import json

from spans import CLOUD_REQUESTS, SCHEME_OPS, SpanRecorder, totals


def digest(facts: list[dict]) -> str:
    """Exact fingerprint of an episode's simulated results."""
    blob = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder: SpanRecorder, counters: dict, facts: list[dict]) -> dict:
    """Every per-layer metric (without ``trace.overhead_frac``)."""
    t = totals(recorder.spans)
    notes = recorder.notes

    def calls(name: str) -> int:
        return t[name]["calls"]

    def incl(name: str) -> float:
        return t[name]["s"]

    op_names = [f"schemes.op.{op}" for op in SCHEME_OPS]
    user_ops = sum(f["ops"] for f in facts)
    cloud_requests = sum(calls(f"cloud.{kind}") for kind in CLOUD_REQUESTS)
    user_bytes = notes["schemes.op.put"] + notes["schemes.op.update"]
    meta_lookups = calls("fs.is_cached")

    out = {
        "workloads.payload_calls": calls("workloads.payload"),
        "workloads.payload_s": incl("workloads.payload"),
        "workloads.self_s": t["workloads.drive"]["self"],
        "schemes.op_s": sum(incl(n) for n in op_names),
        "schemes.self_s": sum(t[n]["self"] for n in op_names),
        "schemes.heal_calls": calls("schemes.heal"),
        "schemes.heal_s": incl("schemes.heal"),
        "erasure.encode_calls": calls("erasure.encode"),
        "erasure.encode_bytes": notes["erasure.encode"],
        "erasure.encode_s": incl("erasure.encode"),
        "erasure.decode_calls": calls("erasure.decode"),
        "erasure.decode_bytes": notes["erasure.decode"],
        "erasure.decode_s": incl("erasure.decode"),
        "erasure.reconstruct_calls": calls("erasure.reconstruct"),
        "erasure.decodes_per_striped_read": _ratio(
            calls("erasure.decode"), notes["schemes.op.get"]
        ),
        "cloud.busy_s": sum(incl(f"cloud.{kind}") for kind in CLOUD_REQUESTS),
        "cloud.errors": sum(t[f"cloud.{kind}"]["errors"] for kind in CLOUD_REQUESTS),
        "cloud.bytes_put_per_user_byte": _ratio(notes["cloud.put"], user_bytes),
        "cloud.requests_per_op": _ratio(cloud_requests, user_ops),
        "sim.transfer_calls": calls("sim.transfer"),
        "sim.transfer_specs": notes["sim.transfer"],
        "sim.transfer_s": incl("sim.transfer"),
        "sim.events": calls("sim.event"),
        "sim.event_s": incl("sim.event"),
        "metrics.lookups": calls("metrics.lookup"),
        "metrics.lookup_s": incl("metrics.lookup"),
        "metrics.lookups_per_op": _ratio(calls("metrics.lookup"), user_ops),
        "metrics.collector_adds": calls("metrics.collector_add"),
        "metrics.collector_s": incl("metrics.collector_add"),
        "core.breaker_calls": calls("core.breaker"),
        "core.breaker_s": incl("core.breaker"),
        "core.health_s": incl("core.health"),
        "core.writelog_appends": calls("core.writelog"),
        "core.writelog_bytes": notes["core.writelog"],
        "core.retries": counters["retries"],
        "core.breaker_fast_fails": counters["breaker_fast_fail"],
        "core.retry_ratio": _ratio(counters["retries"], cloud_requests),
        "fs.meta_lookups": meta_lookups,
        "fs.meta_hit_ratio": _ratio(notes["fs.is_cached"], meta_lookups),
        "fs.meta_applies": calls("fs.apply_group"),
        "fs.meta_apply_s": incl("fs.apply_group"),
        "fs.meta_encode_s": incl("fs.encode_dir"),
        "service.routes": calls("service.route"),
        "service.route_s": incl("service.route"),
        "service.auth_s": incl("service.auth"),
        "service.submit_s": incl("service.submit"),
        "service.dispatch_s": incl("service.dispatch"),
        "service.shed": counters["shed"],
        "service.queue_wait_sim_s": notes["service.dispatch"],
        "obs.slo_records": calls("obs.slo_record"),
        "obs.slo_s": incl("obs.slo_record"),
    }
    for op in SCHEME_OPS:
        out[f"schemes.ops.{op}"] = calls(f"schemes.op.{op}")
    for kind in CLOUD_REQUESTS:
        out[f"cloud.requests.{kind}"] = calls(f"cloud.{kind}")
    return out
