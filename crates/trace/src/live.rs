//! Live-streaming workloads (paper §VI future work).
//!
//! A live broadcast pins every viewer to the same wall-clock interval: the
//! audience ramps up around the start, holds through the event and drains at
//! the end. Concurrency — and therefore swarm capacity — is enormous
//! compared to catch-up viewing of the same audience size, which makes live
//! events the best case for peer-assisted delivery (savings approach the
//! Eq. 12 asymptote).

use rand::Rng;

use consume_local_stats::dist::{Distribution, LogNormal, Normal};
use consume_local_stats::rng::SeedDerive;

use crate::content::ContentId;
use crate::device::DeviceClass;
use crate::generator::{Trace, TraceConfig, TraceError};
use crate::population::Population;
use crate::session::SessionRecord;
use crate::time::SimTime;

/// Configuration of one live broadcast event.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveEvent {
    /// The content item the event is broadcast as.
    pub content: ContentId,
    /// Broadcast start.
    pub start: SimTime,
    /// Broadcast length in seconds.
    pub duration_secs: u32,
    /// Number of viewers tuning in.
    pub viewers: u32,
    /// Std-dev of the join-time jitter around the start, seconds (viewers
    /// trickle in around kick-off).
    pub join_jitter_secs: f64,
}

impl LiveEvent {
    /// Validates the event parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] naming the offending field.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.duration_secs == 0 {
            return Err(TraceError::BadConfig {
                field: "duration_secs",
                value: 0.0,
            });
        }
        if self.viewers == 0 {
            return Err(TraceError::BadConfig {
                field: "viewers",
                value: 0.0,
            });
        }
        if !self.join_jitter_secs.is_finite() || self.join_jitter_secs < 0.0 {
            return Err(TraceError::BadConfig {
                field: "join_jitter_secs",
                value: self.join_jitter_secs,
            });
        }
        Ok(())
    }
}

/// Generates a live-event trace over an existing population.
///
/// Viewers are drawn activity-weighted from the population; each joins
/// around the start (normal jitter, truncated to the event) and watches a
/// log-normal share of the remaining broadcast. Sessions never extend past
/// the event's end — there is nothing to stream after a live event ends.
///
/// # Errors
///
/// Returns [`TraceError`] for invalid event parameters.
pub fn live_event_trace(
    base: &TraceConfig,
    population: Population,
    events: &[LiveEvent],
    seed: u64,
) -> Result<Trace, TraceError> {
    for e in events {
        e.validate()?;
    }
    let seeds = SeedDerive::new(seed);
    let catalogue = crate::content::Catalogue::generate(
        base.catalogue_size.max(events.len() as u32),
        base.popularity,
        base.days,
        &mut seeds.stream("live-catalogue"),
    )
    .ok_or(TraceError::BadConfig {
        field: "catalogue_size",
        value: 0.0,
    })?;

    let device_sampler = DeviceClass::mix_sampler();
    let mut sessions = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let mut rng = seeds.stream_indexed("live-event", i as u64);
        let jitter = Normal::new(0.0, event.join_jitter_secs.max(1e-9)).expect("validated jitter");
        let watch = LogNormal::with_mean(0.8, 0.4).expect("static watch params");
        let end = event.start + u64::from(event.duration_secs);
        for _ in 0..event.viewers {
            let user = &population.users()[rng.gen_range(0..population.len())];
            let offset = jitter.sample(&mut rng);
            let start = if offset < 0.0 {
                event.start - (-offset) as u64
            } else {
                event.start + offset as u64
            };
            // Clamp joins into the broadcast window.
            let start = start.max(event.start).min(end - 1);
            let remaining = end.seconds_since(start).max(60);
            let fraction = watch.sample(&mut rng).clamp(0.05, 1.0);
            let duration = ((remaining as f64 * fraction) as u32).max(60);
            let device = DeviceClass::MIX[device_sampler.sample(&mut rng)].0;
            sessions.push(SessionRecord {
                user: user.id,
                content: event.content,
                start,
                duration_secs: duration.min(remaining as u32),
                device,
                isp: user.isp,
                location: user.location,
            });
        }
    }
    Ok(Trace::from_parts(
        base.clone(),
        catalogue,
        population,
        sessions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_topology::IspRegistry;
    use rand::SeedableRng;

    fn population(n: u32) -> Population {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        Population::generate(n, &IspRegistry::london_top5(), &mut rng).unwrap()
    }

    fn event(viewers: u32) -> LiveEvent {
        LiveEvent {
            content: ContentId(0),
            start: SimTime::from_day_hour(0, 20),
            duration_secs: 2 * 3600,
            viewers,
            join_jitter_secs: 300.0,
        }
    }

    #[test]
    fn validation() {
        let mut e = event(100);
        e.duration_secs = 0;
        assert!(e.validate().is_err());
        let mut e = event(100);
        e.viewers = 0;
        assert!(e.validate().is_err());
        let mut e = event(100);
        e.join_jitter_secs = f64::NAN;
        assert!(e.validate().is_err());
        assert!(event(100).validate().is_ok());
    }

    #[test]
    fn sessions_confined_to_broadcast() {
        let base = TraceConfig::london_sep2013().scaled(0.001).unwrap();
        let trace = live_event_trace(&base, population(5_000), &[event(2_000)], 1).unwrap();
        assert_eq!(trace.sessions().len(), 2_000);
        let ev = event(2_000);
        let end = ev.start + u64::from(ev.duration_secs);
        for s in trace.sessions() {
            assert!(s.start >= ev.start);
            assert!(s.end() <= end, "session must not outlive the broadcast");
            assert!(s.duration_secs >= 60);
        }
    }

    #[test]
    fn concurrency_peaks_during_event() {
        let base = TraceConfig::london_sep2013().scaled(0.001).unwrap();
        let trace = live_event_trace(&base, population(5_000), &[event(3_000)], 7).unwrap();
        let ev = event(3_000);
        let mid = ev.start + u64::from(ev.duration_secs) / 3;
        let live = trace
            .sessions()
            .iter()
            .filter(|s| s.is_active_at(mid))
            .count();
        assert!(live > 1_000, "mid-event concurrency {live}");
        let after = ev.start + u64::from(ev.duration_secs) + 3600;
        assert_eq!(
            trace
                .sessions()
                .iter()
                .filter(|s| s.is_active_at(after))
                .count(),
            0
        );
    }

    #[test]
    fn multiple_events_coexist() {
        let base = TraceConfig::london_sep2013().scaled(0.001).unwrap();
        let mut second = event(500);
        second.content = ContentId(1);
        second.start = SimTime::from_day_hour(1, 20);
        let trace = live_event_trace(&base, population(5_000), &[event(500), second], 3).unwrap();
        assert_eq!(trace.sessions().len(), 1_000);
        let items: std::collections::HashSet<_> =
            trace.sessions().iter().map(|s| s.content).collect();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn deterministic() {
        let base = TraceConfig::london_sep2013().scaled(0.001).unwrap();
        let a = live_event_trace(&base, population(2_000), &[event(500)], 9).unwrap();
        let b = live_event_trace(&base, population(2_000), &[event(500)], 9).unwrap();
        assert_eq!(a.sessions(), b.sessions());
    }
}
