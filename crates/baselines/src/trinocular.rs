//! Trinocular-style adaptive probing baseline.
//!
//! Trinocular (Quan et al., SIGCOMM 2013) tracks Internet *reachability*
//! with belief-driven adaptive probing: blocks believed stable are
//! probed rarely; uncertainty triggers faster probing. The paper
//! compares probe volumes: "Compared to Trinocular, BlameIt issues 20×
//! fewer active probes" (§6.5). This module implements the adaptive
//! schedule (simplified to the scheduling essence: exponential back-off
//! of the probing interval while observations stay consistent, reset on
//! anomaly) so that probe-budget comparison can be regenerated.
//!
//! Note this baseline diagnoses *unreachability-style* anomalies from
//! probes alone — it has no passive RTT stream, which is exactly why it
//! must keep probing everything.

use blameit::{Backend, ProbeTarget};
use blameit_simnet::{SimTime, TimeRange, BUCKET_SECS};
use blameit_topology::{CloudLocId, PathId};
use std::collections::HashMap;

/// Adaptive prober state for one target.
#[derive(Clone, Copy, Debug)]
struct TargetState {
    last_probe: SimTime,
    interval_secs: u64,
    last_rtt_ms: f64,
}

/// Trinocular-style adaptive monitor.
#[derive(Debug)]
pub struct TrinocularMonitor {
    /// Base probing interval (Trinocular: 11 minutes).
    base_interval_secs: u64,
    /// Maximum backed-off interval.
    max_interval_secs: u64,
    /// Relative end-to-end RTT change treated as an anomaly.
    anomaly_rel_change: f64,
    states: HashMap<(CloudLocId, PathId), TargetState>,
    probes: u64,
    anomalies: u64,
}

impl TrinocularMonitor {
    /// Paper-flavoured defaults: 11-minute base interval, backing off
    /// 1.5× per stable observation to a 33-minute cap — ≈44 probes per
    /// target per day in steady state, ~20× BlameIt's twice-daily
    /// background probing (the §6.5 comparison).
    pub fn paper_default() -> Self {
        Self::new(660, 1_980, 0.5)
    }

    /// Custom configuration.
    pub fn new(base_interval_secs: u64, max_interval_secs: u64, anomaly_rel_change: f64) -> Self {
        assert!(base_interval_secs > 0 && max_interval_secs >= base_interval_secs);
        TrinocularMonitor {
            base_interval_secs,
            max_interval_secs,
            anomaly_rel_change,
            states: HashMap::new(),
            probes: 0,
            anomalies: 0,
        }
    }

    /// Probes issued so far.
    pub fn probes_issued(&self) -> u64 {
        self.probes
    }

    /// Anomalies detected so far.
    pub fn anomalies_detected(&self) -> u64 {
        self.anomalies
    }

    /// Advances over `range`, probing each target per its adaptive
    /// schedule. Returns probes issued during the call.
    pub fn run<B: Backend>(
        &mut self,
        backend: &mut B,
        range: TimeRange,
        targets: &[ProbeTarget],
    ) -> u64 {
        let before = self.probes;
        let mut t = range.start;
        while t < range.end {
            for target in targets {
                let key = (target.loc, target.path);
                let due = match self.states.get(&key) {
                    None => true,
                    Some(s) => t.secs() - s.last_probe.secs() >= s.interval_secs,
                };
                if !due {
                    continue;
                }
                self.probes += 1;
                let rtt = backend
                    .traceroute(target.loc, target.p24, t)
                    .and_then(|tr| tr.end_to_end_ms())
                    .unwrap_or(f64::INFINITY);
                let state = self.states.entry(key).or_insert(TargetState {
                    last_probe: t,
                    interval_secs: self.base_interval_secs,
                    last_rtt_ms: rtt,
                });
                let stable = (rtt - state.last_rtt_ms).abs()
                    <= self.anomaly_rel_change * state.last_rtt_ms.max(1.0);
                state.interval_secs = if stable {
                    // Consistent → back off (probe less).
                    (state.interval_secs * 3 / 2).min(self.max_interval_secs)
                } else {
                    self.anomalies += 1;
                    self.base_interval_secs
                };
                state.last_probe = t;
                state.last_rtt_ms = rtt;
            }
            t = t + BUCKET_SECS;
        }
        self.probes - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit::WorldBackend;
    use blameit_simnet::{Fault, FaultId, FaultRates, FaultTarget, World, WorldConfig};

    fn quiet_world(seed: u64) -> World {
        let mut cfg = WorldConfig::tiny(1, seed);
        cfg.fault_rates = FaultRates {
            cloud_per_loc_day: 0.0,
            middle_per_as_day: 0.0,
            client_as_per_day: 0.0,
            client_prefix_per_k_day: 0.0,
            middle_path_scoped_frac: 0.0,
        };
        cfg.churn_rate_per_day = 0.0;
        World::new(cfg)
    }

    fn some_target(w: &World) -> ProbeTarget {
        let c = &w.topology().clients[0];
        let r = w.route_at(c.primary_loc, c, SimTime(0));
        ProbeTarget {
            loc: c.primary_loc,
            path: r.path_id,
            p24: c.p24,
        }
    }

    #[test]
    fn stable_target_backs_off() {
        let w = quiet_world(3);
        let mut b = WorldBackend::new(&w);
        let t = some_target(&w);
        let mut m = TrinocularMonitor::new(600, 4800, 0.5);
        let day = m.run(&mut b, TimeRange::days(1), &[t]);
        // Continuous 10-min probing would be 144/day; back-off must cut
        // that several-fold.
        assert!(day < 60, "backed-off probing issued {day} probes");
        assert!(day >= 86_400 / 4800, "still probes at the max interval");
        assert_eq!(m.anomalies_detected(), 0, "quiet world, no anomalies");
    }

    #[test]
    fn anomaly_resets_interval() {
        let w = quiet_world(5);
        let t = some_target(&w);
        // A huge middle/cloud fault in the middle of the day.
        let mut w2 = w.clone();
        w2.add_faults(vec![Fault {
            id: FaultId(0),
            target: FaultTarget::CloudLocation(t.loc),
            start: SimTime(40_000),
            duration_secs: 20_000,
            added_ms: 300.0,
        }]);
        let mut b = WorldBackend::new(&w2);
        let mut m = TrinocularMonitor::new(600, 4800, 0.5);
        m.run(&mut b, TimeRange::days(1), &[t]);
        assert!(
            m.anomalies_detected() >= 1,
            "the 300 ms jump must trip the detector"
        );
    }

    #[test]
    fn accounting_counts_every_probe() {
        let w = quiet_world(7);
        let mut b = WorldBackend::new(&w);
        let t = some_target(&w);
        let mut m = TrinocularMonitor::new(600, 600, 0.5); // no back-off
        let n = m.run(&mut b, TimeRange::new(SimTime(0), SimTime(3600)), &[t]);
        assert_eq!(n, 6);
        assert_eq!(m.probes_issued(), b.probes_issued());
    }
}
