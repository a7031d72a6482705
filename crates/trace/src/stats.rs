//! Trace statistics and the Table I regeneration.

use std::collections::HashSet;

use crate::generator::{sort_key_fallback_required, Trace};

/// Aggregate statistics of a trace, the quantities behind Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Users with at least one session (Table I "Number of Users").
    pub active_users: u64,
    /// Households (IP addresses) with at least one session (Table I
    /// "Number of IP addresses").
    pub active_households: u64,
    /// Session count (Table I "Number of Sessions").
    pub sessions: u64,
    /// Total watch time in hours.
    pub watch_hours: f64,
    /// Total bytes streamed.
    pub bytes: u64,
    /// Mean sessions per active user.
    pub sessions_per_user: f64,
    /// Distinct content items watched.
    pub items_watched: u64,
    /// Whether the trace's measured maxima overflow the packed 64-bit sort
    /// key (see [`crate::generator::sort_key_fallback_required`] and
    /// [`crate::generator::sort_key_bounds`]: at least 2²³ start seconds,
    /// 2²⁴ users and 2¹⁷ items fit simultaneously), making sort-based
    /// pipelines (the parallel merge, segment emission) take the wide
    /// record sort — correct but slower. Sweeps over custom scales can
    /// check this up front; the simulation engine surfaces the same
    /// condition, computed by the same predicate, as a structured
    /// `SimReport` warning.
    pub sort_key_fallback: bool,
}

impl TraceStats {
    /// Measures a trace.
    pub fn measure(trace: &Trace) -> Self {
        let mut users = HashSet::new();
        let mut households = HashSet::new();
        let mut items = HashSet::new();
        let mut watch_secs = 0u64;
        let mut bytes = 0u64;
        let mut maxima = (0u64, 0u32, 0u32);
        for s in trace.sessions() {
            users.insert(s.user);
            items.insert(s.content);
            if let Some(profile) = trace.population().get(s.user) {
                households.insert(profile.household);
            }
            watch_secs += u64::from(s.duration_secs);
            bytes += s.bytes_watched();
            maxima.0 = maxima.0.max(s.start.as_secs());
            maxima.1 = maxima.1.max(s.user.0);
            maxima.2 = maxima.2.max(s.content.0);
        }
        let sort_key_fallback = sort_key_fallback_required(maxima);
        let sessions = trace.sessions().len() as u64;
        Self {
            active_users: users.len() as u64,
            active_households: households.len() as u64,
            sessions,
            watch_hours: watch_secs as f64 / 3600.0,
            bytes,
            sessions_per_user: sessions as f64 / (users.len() as f64).max(1.0),
            items_watched: items.len() as u64,
            sort_key_fallback,
        }
    }

    /// Mean session duration in seconds.
    pub fn mean_session_secs(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.watch_hours * 3600.0 / self.sessions as f64
        }
    }
}

/// The Table I reproduction: measured counts from a (possibly scaled) trace,
/// projected back to full scale, next to the paper's published values.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Label of the column ("Sep 2013" / "July 2014" / custom).
    pub label: String,
    /// The scale the trace was generated at (1.0 = full).
    pub scale: f64,
    /// Raw measured statistics.
    pub measured: TraceStats,
    /// Users projected to full scale (`measured / scale`).
    pub projected_users: f64,
    /// IP addresses projected to full scale.
    pub projected_ips: f64,
    /// Sessions projected to full scale.
    pub projected_sessions: f64,
}

/// The paper's Table I values for September 2013.
pub const PAPER_SEP2013: (f64, f64, f64) = (3.3e6, 1.5e6, 23.5e6);

/// The paper's Table I values for July 2014.
pub const PAPER_JUL2014: (f64, f64, f64) = (3.6e6, 1.6e6, 24.2e6);

impl Table1 {
    /// Builds the Table I column from a trace generated at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn from_trace(label: impl Into<String>, trace: &Trace, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let measured = TraceStats::measure(trace);
        Self {
            label: label.into(),
            scale,
            projected_users: measured.active_users as f64 / scale,
            projected_ips: measured.active_households as f64 / scale,
            projected_sessions: measured.sessions as f64 / scale,
            measured,
        }
    }

    /// Renders the column as aligned text rows (value, projection, paper).
    pub fn render(&self, paper: (f64, f64, f64)) -> String {
        let fmt_m = |x: f64| format!("{:.2}M", x / 1e6);
        format!(
            "{label} (scale {scale}):\n\
             {:<22} {:>10} {:>12} {:>10}\n\
             {:<22} {:>10} {:>12} {:>10}\n\
             {:<22} {:>10} {:>12} {:>10}\n\
             {:<22} {:>10} {:>12} {:>10}\n",
            "row",
            "measured",
            "projected",
            "paper",
            "Number of Users",
            self.measured.active_users,
            fmt_m(self.projected_users),
            fmt_m(paper.0),
            "Number of IPs",
            self.measured.active_households,
            fmt_m(self.projected_ips),
            fmt_m(paper.1),
            "Number of Sessions",
            self.measured.sessions,
            fmt_m(self.projected_sessions),
            fmt_m(paper.2),
            label = self.label,
            scale = self.scale,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};

    fn trace(scale: f64, seed: u64) -> Trace {
        TraceGenerator::new(TraceConfig::london_sep2013().scaled(scale).unwrap(), seed)
            .generate()
            .unwrap()
    }

    #[test]
    fn projections_land_near_paper_sep2013() {
        let scale = 0.002;
        let t = trace(scale, 42);
        let table = Table1::from_trace("Sep 2013", &t, scale);
        let (users, ips, sessions) = PAPER_SEP2013;
        assert!(
            (table.projected_users / users - 1.0).abs() < 0.15,
            "users {} vs paper {users}",
            table.projected_users
        );
        assert!(
            (table.projected_ips / ips - 1.0).abs() < 0.25,
            "ips {} vs paper {ips}",
            table.projected_ips
        );
        assert!(
            (table.projected_sessions / sessions - 1.0).abs() < 0.10,
            "sessions {} vs paper {sessions}",
            table.projected_sessions
        );
    }

    #[test]
    fn sort_key_fallback_follows_shared_predicate() {
        use crate::generator::sort_key_bounds;

        // London presets fit the packed key: no fallback.
        let t = trace(0.002, 7);
        assert!(!TraceStats::measure(&t).sort_key_fallback);

        // The flag mirrors `sort_key_fallback_required` on the measured
        // maxima: single-field exceedance of an old 59-bit bound (or a new
        // guaranteed bound) stays on the fast path; jointly pathological
        // maxima flip it. Rebuild the trace with one doctored record per
        // case.
        let base = t.sessions()[0];
        for (name, expected, record) in [
            ("start at new guaranteed bound", false, {
                let mut s = base;
                s.start = crate::time::SimTime(sort_key_bounds::START_SECS);
                s
            }),
            ("user at new guaranteed bound", false, {
                let mut s = base;
                s.user = crate::population::UserId(sort_key_bounds::USERS);
                s
            }),
            ("content at new guaranteed bound", false, {
                let mut s = base;
                s.content = crate::content::ContentId(sort_key_bounds::ITEMS);
                s
            }),
            ("jointly pathological user and content", true, {
                let mut s = base;
                s.user = crate::population::UserId(u32::MAX);
                s.content = crate::content::ContentId(u32::MAX);
                s
            }),
        ] {
            let mut sessions = t.sessions().to_vec();
            sessions.push(record);
            let doctored = Trace::from_parts(
                t.config().clone(),
                t.catalogue().clone(),
                t.population().clone(),
                sessions,
            );
            let stats = TraceStats::measure(&doctored);
            assert_eq!(
                stats.sort_key_fallback, expected,
                "{name}: sort_key_fallback must match the shared predicate"
            );
            let maxima = doctored.sessions().iter().fold((0u64, 0u32, 0u32), |m, s| {
                (
                    m.0.max(s.start.as_secs()),
                    m.1.max(s.user.0),
                    m.2.max(s.content.0),
                )
            });
            assert_eq!(
                stats.sort_key_fallback,
                sort_key_fallback_required(maxima),
                "{name}: stats and packing must share one source of truth"
            );
        }
    }

    #[test]
    fn users_per_ip_ratio_matches() {
        let t = trace(0.002, 7);
        let s = TraceStats::measure(&t);
        let ratio = s.active_users as f64 / s.active_households as f64;
        assert!((1.9..2.5).contains(&ratio), "users/IP {ratio}");
    }

    #[test]
    fn mean_session_duration_is_catchup_tv_like() {
        let t = trace(0.001, 9);
        let s = TraceStats::measure(&t);
        let mins = s.mean_session_secs() / 60.0;
        assert!((15.0..40.0).contains(&mins), "mean session {mins} minutes");
    }

    #[test]
    fn sessions_per_user_near_paper() {
        // Paper: 23.5M sessions / 3.3M users ≈ 7.1.
        let t = trace(0.002, 11);
        let s = TraceStats::measure(&t);
        assert!(
            (5.0..9.5).contains(&s.sessions_per_user),
            "got {}",
            s.sessions_per_user
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let t = trace(0.0005, 3);
        let table = Table1::from_trace("Sep 2013", &t, 0.0005);
        let out = table.render(PAPER_SEP2013);
        assert!(out.contains("Number of Users"));
        assert!(out.contains("Number of IPs"));
        assert!(out.contains("Number of Sessions"));
        assert!(out.contains("3.30M"));
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn rejects_bad_scale() {
        let t = trace(0.0005, 3);
        let _ = Table1::from_trace("x", &t, 0.0);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let t0 = trace(0.0005, 3);
        let empty = Trace::from_parts(
            t0.config().clone(),
            t0.catalogue().clone(),
            t0.population().clone(),
            Vec::new(),
        );
        let s = TraceStats::measure(&empty);
        assert_eq!(s.active_users, 0);
        assert_eq!(s.sessions, 0);
        assert_eq!(s.mean_session_secs(), 0.0);
    }
}
