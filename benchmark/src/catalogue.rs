//! The fixed names of the ledger: workloads, end-to-end metrics with
//! their direction and regression bound, and per-layer metrics.
//!
//! `BENCHMARK.json` at the repo root carries the same names; the test
//! in `tests/contract.rs` reads that file and fails when the two drift.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a name and the reason it exists.
#[derive(Debug)]
pub struct WorkloadDef {
    /// Fixed name (`--workload`).
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "steady",
        why: "the service's normal day in-process: admission+WAL dominate an ACK, one tick in four snapshots; no sockets, nothing shed",
    },
    WorkloadDef {
        name: "wire",
        why: "steady's first batches through Server::run over localhost: same decisions (checked), so the difference is wire+server alone",
    },
    WorkloadDef {
        name: "surge",
        why: "middle bucket of every tick window amplified 10x: admission's shed path (score, fairness, rewrite) instead of pass-through",
    },
    WorkloadDef {
        name: "replay",
        why: "engine only over pre-materialised quartets: no wire, admission, WAL, journal or snapshot; where tick-stage work must show",
    },
    WorkloadDef {
        name: "recover",
        why: "open a crashed state dir (WAL replay, snapshot decode, journal replay) then resume the feed: the read side of what steady writes",
    },
];

/// One end-to-end metric: what a user of the service would see.
#[derive(Debug)]
pub struct EndToEndDef {
    /// Fixed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload (see the README
/// for what each one reads on a workload that has no separate event
/// for it).
#[rustfmt::skip] // one metric per line reads as the table it is
pub const END_TO_END: [EndToEndDef; 10] = [
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "records_per_s", unit: "records/s", better: Better::Higher, bound: 0.20 },
    EndToEndDef { name: "ack_ms_p50", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEndDef { name: "ack_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "verdict_ms_p50", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEndDef { name: "verdict_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "ticks_per_s", unit: "ticks/s", better: Better::Higher, bound: 0.20 },
    EndToEndDef { name: "tick_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "tick_ms_p95", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "recover_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
];

/// One per-layer metric (layer = module name before the first dot).
#[derive(Debug)]
pub struct PerLayerDef {
    /// Fixed name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, reported by every traced run (0 where the
/// layer does no work on that workload).
pub const PER_LAYER: [PerLayerDef; 54] = [
    lower("simnet.world_build_s", "s"),
    lower("simnet.materialize_s", "s"),
    higher("simnet.records_generated", "count"),
    lower("wire.encode_ns_per_record", "ns"),
    lower("wire.decode_ns_per_record", "ns"),
    lower("wire.frame_bytes_per_record", "bytes"),
    lower("server.ack_minus_offer_ms_p50", "ms"),
    lower("server.ack_after_tick_ms_p50", "ms"),
    lower("admission.offer_ns_per_record", "ns"),
    lower("admission.groups_scored", "count"),
    lower("admission.shed_records", "count"),
    lower("admission.shed_groups", "count"),
    lower("admission.rejects", "count"),
    lower("wal.append_ms_p50", "ms"),
    lower("wal.append_ns_per_record", "ns"),
    lower("wal.bytes_appended", "bytes"),
    lower("wal.appends", "count"),
    lower("wal.compact_ms_p50", "ms"),
    lower("wal.compactions", "count"),
    lower("wal.replay_ms_p50", "ms"),
    lower("wal.replay_bytes", "bytes"),
    lower("wal.replay_batches", "count"),
    lower("queue.push_ns_per_record", "ns"),
    lower("queue.quartets_in_ms_p50", "ms"),
    lower("queue.peak_records", "count"),
    lower("columnar.aggregate_ns_per_record", "ns"),
    lower("columnar.sort_fallbacks", "count"),
    higher("columnar.quartets_out", "count"),
    lower("pipeline.stage.ingest_s", "s"),
    lower("pipeline.stage.quartet_aggregation_s", "s"),
    lower("pipeline.stage.passive_blame_s", "s"),
    lower("pipeline.stage.priority_ranking_s", "s"),
    lower("pipeline.stage.active_localization_s", "s"),
    lower("pipeline.stage.baseline_refresh_s", "s"),
    lower("pipeline.stage_sum_s", "s"),
    lower("pipeline.tick_total_s", "s"),
    lower("pipeline.untimed_s", "s"),
    lower("pipeline.warmup_s", "s"),
    higher("pipeline.quartets_processed", "count"),
    higher("pipeline.blames", "count"),
    higher("pipeline.alerts", "count"),
    lower("pipeline.probes_on_demand", "count"),
    lower("persist.plain_tick_ms_p50", "ms"),
    lower("persist.snapshot_tick_ms_p50", "ms"),
    lower("persist.journal_overhead_ms_p50", "ms"),
    lower("persist.snapshot_bytes_first", "bytes"),
    lower("persist.snapshot_bytes_last", "bytes"),
    lower("persist.snapshots_written", "count"),
    lower("persist.journal_bytes", "bytes"),
    lower("persist.term_ms", "ms"),
    lower("persist.open_rest_ms_p50", "ms"),
    lower("persist.replayed_ticks", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.offer_unattributed_ms_p50", "ms"),
];

/// The workload definition for `name`, if it is one of the five.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
