"""Metric derivation for the tcsim benchmark.

tcsim_perf prints one JSON object of raw samples per process (see
tcsim_perf.cc). The functions here turn it into:

  - end-to-end metrics, the same names on every workload (BENCHMARK.json),
  - the workload's named metrics (README.md), printed on the detail line,
  - per-layer metrics from a traced run and its untraced twin.

Layers a workload does not exercise report 0: that is the bypass prediction
of the layer table in README.md, not a missing value.
"""

from stats import count_failures, percentile, summarize


def _p(raw, key, p):
    xs = raw["samples"].get(key, [])
    return percentile(xs, p) if xs else 0.0


def _value(raw, key):
    return float(raw["values"].get(key, 0.0))


def _ratio(num, den):
    return num / den if den else 0.0


def _peak_rss_mb(raw):
    """Median over the timed rounds of a round's peak resident set (set-up,
    timed section and the round's own checks): one round that happens to
    keep an extra malloc arena does not move it."""
    return percentile(raw["round_peak_rss_mb"], 50)


def e2e_metrics(raw):
    """The end-to-end metrics of one untraced run.

    Timings, set-up included, are host CPU time of the whole process (every
    thread), not wall time: on a shared host, CPU steal moved wall time of
    one experiment by 25-50% between runs, CPU time by a few percent. The
    wall-time figures are on the detail line (named_metrics).

    An operation is 10 simulated ms of the fat tree (fattree_kernel), a
    StepEpoch call (epoch_spill), one period's MicroCheckpointer::RunUntil
    (ha_protect, ha_failover) or a stateful swap-out plus swap-in (swap_cycles).
    Samples of failed operations stay in.
    """
    op = summarize(raw["samples"].get("op_cpu_ms", []))
    return {
        "setup_s": percentile(raw["setup_s"], 50) if raw["setup_s"] else 0.0,
        "peak_rss_mb": _peak_rss_mb(raw),
        "sim_ms_per_cpu_s": _ratio(raw["sim_ms"], _value(raw, "timed_cpu_s")),
        "op_cpu_ms_p50": op["p50"],
        "op_cpu_ms_tail": op["tail"],
    }


def named_metrics(raw):
    """The workload's own end-to-end metrics, each {value, unit, n}: timings
    in host wall time (setup_s and peak_rss_mb repeat e2e_metrics'), timing
    percentiles with their sample count and the percentile taken."""
    attempted, failed = count_failures(raw["op_ok"], raw["failures"])
    out = {
        "setup_s": {"value": percentile(raw["setup_s"], 50) if raw["setup_s"] else 0.0,
                    "unit": "s", "n": len(raw["setup_s"])},
        "peak_rss_mb": {"value": _peak_rss_mb(raw), "unit": "MB",
                        "n": len(raw["round_peak_rss_mb"])},
        "failed_ratio": {"value": _ratio(failed, attempted), "unit": "ratio",
                         "n": attempted},
    }
    workload = raw["workload"]
    if workload != "swap_cycles":
        out["sim_ms_per_s"] = {"value": _ratio(raw["sim_ms"], raw["timed_s"]),
                               "unit": "sim_ms/s"}

    def timing(name, key, pct, unit="ms"):
        xs = raw["samples"].get(key, [])
        out[name] = {"value": percentile(xs, pct) if xs else 0.0,
                     "unit": unit, "n": len(xs), "pct": pct}

    if workload == "epoch_spill":
        timing("epoch_ms_p50", "op_ms", 50)
        timing("epoch_ms_p95", "op_ms", 95)
        out["repo_bytes_per_epoch"] = {
            "value": _ratio(_value(raw, "repo.bytes_written"), _value(raw, "epochs")),
            "unit": "B"}
    elif workload == "ha_protect":
        timing("step_ms_p50", "op_ms", 50)
        timing("step_ms_p95", "op_ms", 95)
    elif workload == "ha_failover":
        timing("recovery_ms_p50", "recovery_ms", 50)
        timing("recovery_ms_p90", "recovery_ms", 90)
    elif workload == "swap_cycles":
        timing("swap_out_ms_p50", "swap_out_ms", 50)
        timing("swap_in_ms_p50", "swap_in_ms", 50)
        timing("swap_in_sim_s", "swap_in_sim_s", 50, unit="sim_s")
    return out


def self_times(spans, phase="timed"):
    """Self time per layer, in ms, over the spans of one phase: each span's
    duration minus the part of it that its children's union covers."""
    spans = [s for s in spans if s["phase"] == phase]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        t0, t1 = s["t0_ms"], s["t1_ms"]
        covered = 0.0
        end = t0
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0_ms"]):
            lo, hi = max(c["t0_ms"], end), min(c["t1_ms"], t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + (t1 - t0) - covered
    return totals


def layer_metrics(traced, base, spans):
    """Per-layer metrics of a traced run; `base` is the untraced run of the
    same seed, the reference for the tracing overhead (a ratio of process CPU
    time, like the per-event and per-packet costs)."""
    events = _value(traced, "sim.events")
    delivered = _value(traced, "net.packets_delivered")
    cpu_ns = _value(traced, "timed_cpu_s") * 1e9
    selfs = self_times(spans)
    out = {
        "sim.events": events,
        "sim.cpu_ns_per_event": _ratio(cpu_ns, events),
        "sim.windows": _value(traced, "sim.windows"),
        "sim.cross_events": _value(traced, "sim.cross_events"),
        "sim.partition_skew": _p(traced, "sim.partition_skew", 50),
        "sim.slice_ms_p50": _p(traced, "sim.slice_ms", 50),
        "sim.slice_ms_p99": _p(traced, "sim.slice_ms", 99),
        "net.packets_delivered": delivered,
        "net.delivery_ratio": _ratio(delivered, _value(traced, "net.packets_sent")),
        "net.events_per_packet": _ratio(events, delivered),
        "net.cpu_ns_per_packet": _ratio(cpu_ns, delivered),
        "ckpt.snapshot_ms_p50": _p(traced, "ckpt.snapshot_ms", 50),
        "ckpt.snapshot_ms_p95": _p(traced, "ckpt.snapshot_ms", 95),
        "ckpt.frozen_ms_p50": _p(traced, "ckpt.frozen_ms", 50),
        "ckpt.frozen_ms_p95": _p(traced, "ckpt.frozen_ms", 95),
        "ckpt.background_ms_p50": _p(traced, "ckpt.background_ms", 50),
        "ckpt.commit_wait_ms_p50": _p(traced, "ckpt.commit_wait_ms", 50),
        "ckpt.commit_wait_ms_p95": _p(traced, "ckpt.commit_wait_ms", 95),
        "ckpt.image_bytes": _p(traced, "ckpt.image_bytes", 50),
        "repo.spill_ms_p50": _p(traced, "repo.spill_ms", 50),
        "repo.spill_ms_p95": _p(traced, "repo.spill_ms", 95),
        "repo.spill_growth": _p(traced, "repo.spill_growth", 50),
        "repo.dedup_ratio": _ratio(_value(traced, "repo.logical_put_bytes"),
                                   _value(traced, "repo.physical_put_bytes")),
        "repo.reopen_ms": _p(traced, "repo.reopen_ms", 50),
        "repo.materialize_ms_p50": _p(traced, "repo.materialize_ms", 50),
        "repo.swap_bytes_written": _p(traced, "repo.swap_bytes_written", 50),
        "repo.swap_bytes_read": _p(traced, "repo.swap_bytes_read", 50),
        "ha.step_ms_p50": _p(traced, "ha.step_ms", 50),
        "ha.step_ms_p95": _p(traced, "ha.step_ms", 95),
        "ha.held_pkts_max": _value(traced, "ha.held_pkts_max"),
        "emulab.swap_bytes": _p(traced, "emulab.swap_bytes", 50),
        "storage.session_write_ms": _p(traced, "storage.session_write_ms", 50),
        "storage.drain_ms": _p(traced, "storage.drain_ms", 50),
        "swap.cycle_growth": _p(traced, "swap.cycle_growth", 50),
        "swap.events_per_cycle": _p(traced, "swap.events_per_cycle", 50),
        "obs.trace_overhead": _ratio(_value(traced, "timed_cpu_s"),
                                     _value(base, "timed_cpu_s")),
    }
    for layer in ("sim", "ckpt", "ha", "emulab", "storage"):
        out[f"self.{layer}_ms"] = selfs.get(layer, 0.0)
    return out
