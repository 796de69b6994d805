//! Integration: the observability layer reflects what the engine did.
//!
//! Runs a real engine over a simulated day and cross-checks the
//! metrics registry and per-tick stage profile against the tick
//! outputs themselves.

use blameit::{
    metrics::stage, BadnessThresholds, Blame, BlameItConfig, BlameItEngine, WorldBackend,
};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{SimTime, TimeRange, World, WorldConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn run_day(world: &World) -> (BlameItEngine, Vec<blameit::TickOutput>) {
    let thresholds = BadnessThresholds::default_for(world);
    let registry = Arc::new(MetricsRegistry::new());
    let mut engine = BlameItEngine::with_metrics(BlameItConfig::new(thresholds), registry);
    let mut backend = WorldBackend::new(world);
    engine.warmup(&backend, TimeRange::days(1), 2);
    let outs = engine.run(
        &mut backend,
        TimeRange::new(SimTime::from_days(1), SimTime::from_days(2)),
    );
    (engine, outs)
}

#[test]
fn stage_timings_are_consistent() {
    let world = World::new(WorldConfig::tiny(2, 7));
    let (_, outs) = run_day(&world);
    assert!(!outs.is_empty());
    for out in &outs {
        let t = &out.stage_timings;
        assert!(t.total() > std::time::Duration::ZERO, "tick took time");
        assert!(
            t.stage_sum() <= t.total(),
            "stage laps are disjoint slices of the tick: {} > {}",
            t.stage_sum().as_nanos(),
            t.total().as_nanos()
        );
        // Every recorded stage is a canonical one, in pipeline order.
        let names: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        for n in &names {
            assert!(stage::ALL.contains(n), "unknown stage {n}");
        }
        let positions: Vec<usize> = names
            .iter()
            .map(|n| stage::ALL.iter().position(|s| s == n).unwrap())
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted, "stages in pipeline order");
        // Each tick exercises at least the passive path.
        assert!(t.get(stage::INGEST).is_some());
        assert!(t.get(stage::PASSIVE).is_some());
    }
}

#[test]
fn blame_counters_match_tick_outputs() {
    let world = World::new(WorldConfig::tiny(2, 7));
    let (engine, outs) = run_day(&world);
    let m = engine.metrics();

    let mut by_segment = [0u64; 5];
    let mut blamed = 0u64;
    let mut alerts = 0u64;
    let mut on_demand = 0u64;
    let mut background = 0u64;
    for out in &outs {
        for b in &out.blames {
            let idx = Blame::ALL.iter().position(|x| *x == b.blame).unwrap();
            by_segment[idx] += 1;
        }
        blamed += out.blames.len() as u64;
        alerts += out.alerts.len() as u64;
        on_demand += out.on_demand_probes;
        background += out.background_probes;
    }

    assert_eq!(m.ticks.get(), outs.len() as u64);
    // `quartets_processed` counts every enriched quartet, of which the
    // blamed (bad) ones are a subset.
    assert!(blamed > 0, "the day produced bad quartets");
    assert!(m.quartets_processed.get() >= blamed);
    for (i, b) in Blame::ALL.into_iter().enumerate() {
        assert_eq!(m.blame_counter(b).get(), by_segment[i], "{b}");
    }
    assert_eq!(m.alerts.get(), alerts);
    assert_eq!(m.on_demand_probes.get(), on_demand);
    assert_eq!(m.background_probes.get(), background);
    assert_eq!(m.tick_duration_us.count(), outs.len() as u64);
    assert_eq!(m.quartet_rtt_ms.count(), m.quartets_processed.get());
    // Baselines were stored, and the staleness gauges describe them.
    assert!(m.baselines_stored.get() > 0.0);
    assert!(m.baseline_staleness_max_secs.get() >= m.baseline_staleness_mean_secs.get());
}

#[test]
fn registry_renders_after_real_run() {
    let world = World::new(WorldConfig::tiny(2, 7));
    let (engine, outs) = run_day(&world);
    let prom = engine.metrics().registry().render_prometheus();
    assert!(
        prom.contains(&format!("blameit_ticks_total {}", outs.len())),
        "{prom}"
    );
    assert!(
        prom.contains("# TYPE blameit_stage_duration_us histogram"),
        "{prom}"
    );
    let json = engine.metrics().registry().render_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(
        json.contains("\"blameit_quartets_processed_total\""),
        "{json}"
    );
}

// ── the metric catalogue is bound to the registry ───────────────────

/// `name → (kind, label keys)` for every row of the tables under
/// `## Metrics` in `docs/OBSERVABILITY.md` whose first cell is a
/// backticked `blameit_…` instrument, optionally `{label,…}`.
fn documented_instruments(doc: &str) -> BTreeMap<String, (String, Vec<String>)> {
    let metrics = doc
        .split_once("\n## Metrics\n")
        .and_then(|(_, rest)| rest.split_once("\n## "))
        .map(|(section, _)| section)
        .expect("OBSERVABILITY.md has a `## Metrics` section followed by another");
    let mut out = BTreeMap::new();
    for row in metrics.lines().filter(|l| l.starts_with("| `blameit_")) {
        let cells: Vec<&str> = row.split(" | ").collect();
        let instrument = cells[0].trim_start_matches("| `").trim_end_matches('`');
        let (name, labels) = match instrument.split_once('{') {
            Some((name, labels)) => (name, labels.trim_end_matches('}')),
            None => (instrument, ""),
        };
        let labels = labels.split(',').filter(|l| !l.is_empty());
        let entry = (cells[1].to_string(), labels.map(String::from).collect());
        assert!(
            out.insert(name.to_string(), entry).is_none(),
            "{name} is catalogued twice"
        );
    }
    out
}

/// The same shape read off a Prometheus rendering, plus how many series
/// each family has (`le` is the histogram's own label, not the
/// instrument's).
fn rendered_instruments(text: &str) -> BTreeMap<String, (String, Vec<String>, usize)> {
    let mut out: BTreeMap<String, (String, Vec<String>, usize)> = BTreeMap::new();
    for line in text.lines() {
        if let Some(family) = line.strip_prefix("# TYPE ") {
            let (name, kind) = family.split_once(' ').expect("# TYPE name kind");
            out.insert(name.to_string(), (kind.to_string(), Vec::new(), 0));
            continue;
        }
        let (series, _value) = line.rsplit_once(' ').expect("series value");
        let (sample, labels) = series.split_once('{').unwrap_or((series, ""));
        let keys = labels.trim_end_matches('}').split(',');
        let keys = keys.filter_map(|kv| kv.split_once('=').map(|(k, _)| k.to_string()));
        let keys: Vec<String> = keys.filter(|k| k != "le").collect();
        let histogram_part = ["_bucket", "_sum"].iter().any(|s| sample.ends_with(s));
        let name = sample.strip_suffix("_count").unwrap_or(sample);
        match out.get_mut(name).or(None) {
            Some(family) if !histogram_part => {
                family.1 = keys;
                family.2 += 1;
            }
            _ => assert!(histogram_part, "series {series} has no # TYPE line"),
        }
    }
    out
}

#[test]
fn the_metric_catalogue_and_a_daemon_registry_name_the_same_instruments() {
    // A daemon-shaped registry: engine, persistence and ingest
    // instruments, and (registered by the warm-up checkpoint's counter
    // capture) the chaos layer's.
    let world = World::new(WorldConfig::tiny(2, 7));
    let dir = std::env::temp_dir().join(format!("blameit-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
    cfg.state_dir = Some(dir.clone());
    let registry = Arc::new(MetricsRegistry::new());
    let warmup = TimeRange::days(1);
    let opened = blameit_daemon::DaemonCore::open(
        cfg,
        blameit_daemon::DaemonConfig::default(),
        registry.clone(),
        WorldBackend::new(&world),
        warmup,
    );
    let (mut core, _) = opened.expect("a cold daemon core opens");
    // One tick, so the flight ring holds a frame whose deltas can be
    // checked against the same rendering.
    let source = WorldBackend::new(&world);
    let one_tick = TimeRange::new(warmup.end, warmup.end + 900);
    let batches = blameit_daemon::world_batches(&source, one_tick, Default::default());
    blameit_daemon::feed(&mut blameit_daemon::CoreSink::new(&mut core), batches, 1).unwrap();
    assert_eq!(core.term().unwrap().len(), 1, "the fed window ticked");
    let deltas = core
        .engine()
        .flight()
        .with_ring(|frames, _| frames.back().expect("one frame").deltas.clone());
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    let text = registry.render_prometheus();
    let rendered = rendered_instruments(&text);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OBSERVABILITY.md");
    let documented = documented_instruments(&std::fs::read_to_string(path).unwrap());

    let undocumented: Vec<_> = rendered
        .keys()
        .filter(|n| !documented.contains_key(*n))
        .collect();
    let unregistered: Vec<_> = documented
        .keys()
        .filter(|n| !rendered.contains_key(*n))
        .collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "docs/OBSERVABILITY.md and the registry disagree — rendered but not catalogued: \
         {undocumented:?}; catalogued but never registered: {unregistered:?}"
    );
    for (name, (kind, labels, series)) in &rendered {
        let (doc_kind, doc_labels) = &documented[name];
        assert_eq!(kind, doc_kind, "{name}: kind");
        assert_eq!(labels, doc_labels, "{name}: label keys");
        // Labels are closed enums (stage, reason, kind, …), never ids:
        // a family that outgrows this is keyed on data.
        assert!(*series <= 12, "{name} renders {series} series");
    }

    // A delta is a metric: its key is a catalogued family, and when it
    // carries a label, a series that family renders.
    assert!(deltas.iter().any(|(key, _)| key.contains('{')));
    for (key, _) in &deltas {
        let family = key.split_once('{').map_or(key.as_str(), |(name, _)| name);
        assert!(rendered.contains_key(family), "delta {key}: no such family");
        let is_series = |l: &str| {
            l.strip_prefix(key.as_str())
                .is_some_and(|v| v.starts_with(' '))
        };
        assert!(
            family == key || text.lines().any(is_series),
            "delta {key} is not a series /metrics renders"
        );
    }
}
