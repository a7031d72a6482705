//! Simulation results: per-swarm, per-day×ISP, per-user and total ledgers.

use consume_local_energy::EnergyParams;
use consume_local_swarm::SwarmKey;
use consume_local_topology::IspId;

use crate::ledger::ByteLedger;

/// One day of one sub-swarm: the inputs for a per-day theory prediction
/// (Fig. 4's theory overlay re-evaluates Eq. 12 at each day's capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmDay {
    /// 0-based day.
    pub day: u32,
    /// Effective M/M/∞ capacity that day (while-active occupancy inverted
    /// through `c/(1 − e^(−c))`; see
    /// [`capacity_from_active_mean`](consume_local_analytics::capacity_from_active_mean)).
    pub capacity: f64,
    /// Demand the swarm served that day.
    pub demand_bytes: u64,
}

/// Result for one sub-swarm.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmReport {
    /// The sub-swarm identity.
    pub key: SwarmKey,
    /// Byte ledger over the whole horizon.
    pub ledger: ByteLedger,
    /// Sessions that belonged to this swarm.
    pub sessions: u64,
    /// Effective M/M/∞ capacity: the mean occupancy while the swarm was
    /// non-empty, inverted through the stationary relation
    /// `L̄ = c/(1 − e^(−c))`. This is the x-coordinate comparable to the
    /// Eq. 12 theory curves (Fig. 2); for a stationary swarm it equals the
    /// time-averaged capacity.
    pub capacity: f64,
    /// Time-averaged capacity `c = Σ watch-time / horizon` — the Little's
    /// law quantity the paper's Fig. 3 distribution is drawn over.
    pub time_avg_capacity: f64,
    /// The effective `q/β` ratio this swarm was matched with.
    pub upload_ratio: f64,
    /// Per-day capacity/demand points (days with demand only).
    pub daily: Vec<SwarmDay>,
}

impl SwarmReport {
    /// Simulated savings under an energy parameter set (`None` without
    /// demand).
    pub fn savings(&self, params: &EnergyParams) -> Option<f64> {
        self.ledger.savings(params)
    }
}

/// Per-user traffic totals, the carbon-credit inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UserTraffic {
    /// Bytes the user streamed (demand).
    pub watched_bytes: u64,
    /// Bytes the user uploaded to peers.
    pub uploaded_bytes: u64,
}

/// One day×ISP aggregation cell (Fig. 4's granularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyIspCell {
    /// 0-based day.
    pub day: u32,
    /// The ISP, or `None` for swarms that were not ISP-split.
    pub isp: Option<IspId>,
    /// The cell's ledger.
    pub ledger: ByteLedger,
}

/// A non-fatal condition the engine noticed while simulating.
///
/// Warnings never change results — they flag paths that are correct but
/// surprising (slower, or worth a config review). They are part of the
/// report so programmatic callers (sweeps, services) see them without
/// scraping stderr, and they are deterministic: the same sessions produce
/// the same warnings on every path, worker count and batch schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWarning {
    /// The sessions' joint sort-key widths overflowed the packed 64-bit
    /// key (`consume_local_trace::generator::sort_key_fallback_required`;
    /// at least 2²³ start seconds, 2²⁴ users and 2¹⁷ items always fit,
    /// see `sort_key_bounds`), so sort-based trace pipelines fall back to
    /// the wide record sort — identical output, slower to produce. The
    /// fields carry the measured maxima so the pathological shape is
    /// visible.
    SortKeyFallback {
        /// Largest session start in seconds.
        max_start_secs: u64,
        /// Largest user id.
        max_user: u32,
        /// Largest content id.
        max_content: u32,
    },
}

/// Fault-injection degradation totals: what churn and peer defection cost
/// the run, system-wide. All-zero when `cooperation_rate == 1.0`.
///
/// These bytes are *not* double-counted in the ledgers: a failed transfer
/// is accounted where the bytes actually ended up (CDN or edge cache), and
/// this struct records the volume that was re-routed so degradation curves
/// can be drawn without diffing two runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Bytes whose matched peer transfer failed because the uploader
    /// defected; receivers re-fetched them from the CDN or edge cache.
    pub failed_transfer_bytes: u64,
    /// The failed bytes split by the network layer the transfer would have
    /// crossed (sums to `failed_transfer_bytes`).
    pub failed_by_layer: [u64; 3],
    /// Windows in which at least one defection occurred — a matched
    /// uploader failing its transfers, a receiver's demand flaking, or
    /// both.
    pub defection_windows: u64,
    /// Peer-receivable demand bytes that flaking receivers withheld from
    /// matching (receiver-side defection); the demand itself was still
    /// served, deferred to the CDN/cache fallback.
    pub failed_demand_bytes: u64,
}

impl Degradation {
    /// Merges another swarm's degradation into this total.
    pub fn merge(&mut self, other: &Degradation) {
        self.failed_transfer_bytes += other.failed_transfer_bytes;
        for (a, b) in self.failed_by_layer.iter_mut().zip(other.failed_by_layer) {
            *a += b;
        }
        self.defection_windows += other.defection_windows;
        self.failed_demand_bytes += other.failed_demand_bytes;
    }

    /// Churn-induced offload loss: the fraction of total demand that would
    /// have been peer-served but fell back to the CDN/cache because of
    /// defections (`None` without demand).
    pub fn offload_loss(&self, demand_bytes: u64) -> Option<f64> {
        if demand_bytes == 0 {
            None
        } else {
            Some(self.failed_transfer_bytes as f64 / demand_bytes as f64)
        }
    }
}

/// The full output of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Horizon in seconds.
    pub horizon_secs: u64,
    /// Window length Δτ in seconds.
    pub window_secs: u64,
    /// Per-swarm results, ordered by key.
    pub swarms: Vec<SwarmReport>,
    /// Per-user traffic, indexed by `UserId.0`.
    pub users: Vec<UserTraffic>,
    /// Day × ISP cells (only cells with any demand are retained).
    pub daily: Vec<DailyIspCell>,
    /// Whole-system ledger.
    pub total: ByteLedger,
    /// Fault-injection cost of the run (all-zero with full cooperation).
    pub degradation: Degradation,
    /// Non-fatal conditions noticed during the run (empty when clean).
    pub warnings: Vec<SimWarning>,
}

impl SimReport {
    /// Total observation windows in the horizon.
    pub fn total_windows(&self) -> u64 {
        self.horizon_secs / self.window_secs.max(1)
    }

    /// System-wide savings under `params` (`None` without demand).
    pub fn total_savings(&self, params: &EnergyParams) -> Option<f64> {
        self.total.savings(params)
    }

    /// Churn-induced offload loss as a fraction of total demand (`None`
    /// without demand): the headline degradation metric of the
    /// fault-injection layer.
    pub fn offload_loss(&self) -> Option<f64> {
        self.degradation.offload_loss(self.total.demand_bytes)
    }

    /// Daily savings series for one ISP (Fig. 4): `(day, savings)` for days
    /// with demand.
    pub fn daily_savings(&self, isp: Option<IspId>, params: &EnergyParams) -> Vec<(u32, f64)> {
        let mut days: Vec<(u32, f64)> = self
            .daily
            .iter()
            .filter(|c| c.isp == isp)
            .filter_map(|c| c.ledger.savings(params).map(|s| (c.day, s)))
            .collect();
        days.sort_by_key(|&(d, _)| d);
        days
    }

    /// Aggregate ledger for one ISP across all days.
    pub fn isp_ledger(&self, isp: Option<IspId>) -> ByteLedger {
        let mut total = ByteLedger::new();
        for c in self.daily.iter().filter(|c| c.isp == isp) {
            total.merge(&c.ledger);
        }
        total
    }

    /// Per-swarm `(effective capacity, simulated savings)` points under
    /// `params` — the dots of Fig. 2 / the samples of Fig. 3's right panel.
    pub fn swarm_points(&self, params: &EnergyParams) -> Vec<(f64, f64)> {
        self.swarms
            .iter()
            .filter_map(|s| s.savings(params).map(|sv| (s.capacity, sv)))
            .collect()
    }

    /// All time-averaged swarm capacities (Fig. 3's left panel samples,
    /// the Little's-law `c = u·r` axis).
    pub fn swarm_capacities(&self) -> Vec<f64> {
        self.swarms.iter().map(|s| s.time_avg_capacity).collect()
    }

    /// Users with any watched traffic, as `(user index, traffic)`.
    pub fn active_users(&self) -> impl Iterator<Item = (u32, &UserTraffic)> {
        self.users
            .iter()
            .enumerate()
            .filter(|(_, t)| t.watched_bytes > 0)
            .map(|(i, t)| (i as u32, t))
    }

    /// Verifies byte conservation on every ledger (swarms, days, total) and
    /// between user watched-bytes and total demand. Used by tests and
    /// examples as a cheap end-to-end integrity check.
    pub fn check_conservation(&self) -> Result<(), String> {
        if !self.total.is_conserved() {
            return Err("total ledger violates demand = server + peer".into());
        }
        for s in &self.swarms {
            if !s.ledger.is_conserved() {
                return Err(format!("swarm {} ledger not conserved", s.key));
            }
        }
        for c in &self.daily {
            if !c.ledger.is_conserved() {
                return Err(format!("daily cell d{}/{:?} not conserved", c.day, c.isp));
            }
        }
        let watched: u64 = self.users.iter().map(|u| u.watched_bytes).sum();
        if watched != self.total.demand_bytes {
            return Err(format!(
                "user watched bytes {watched} != total demand {}",
                self.total.demand_bytes
            ));
        }
        let uploaded: u64 = self.users.iter().map(|u| u.uploaded_bytes).sum();
        if uploaded != self.total.peer_bytes() {
            return Err(format!(
                "user uploaded bytes {uploaded} != total peer bytes {}",
                self.total.peer_bytes()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_trace::ContentId;

    fn cell(day: u32, isp: Option<IspId>, demand: u64, peer: u64) -> DailyIspCell {
        DailyIspCell {
            day,
            isp,
            ledger: ByteLedger {
                demand_bytes: demand,
                server_bytes: demand - peer,
                peer_bytes_by_layer: [peer, 0, 0],
                cache_bytes: 0,
                preload_bytes: 0,
                active_windows: 1,
                peer_windows: 1,
            },
        }
    }

    fn report() -> SimReport {
        let key = SwarmKey {
            content: ContentId(0),
            isp: Some(IspId(0)),
            bitrate: None,
        };
        let ledger = ByteLedger {
            demand_bytes: 300,
            server_bytes: 200,
            peer_bytes_by_layer: [100, 0, 0],
            cache_bytes: 0,
            preload_bytes: 0,
            active_windows: 3,
            peer_windows: 6,
        };
        SimReport {
            horizon_secs: 600,
            window_secs: 10,
            swarms: vec![SwarmReport {
                key,
                ledger,
                sessions: 2,
                capacity: 0.15,
                time_avg_capacity: 0.1,
                upload_ratio: 1.0,
                daily: vec![
                    SwarmDay {
                        day: 0,
                        capacity: 0.2,
                        demand_bytes: 200,
                    },
                    SwarmDay {
                        day: 1,
                        capacity: 0.1,
                        demand_bytes: 100,
                    },
                ],
            }],
            users: vec![
                UserTraffic {
                    watched_bytes: 200,
                    uploaded_bytes: 60,
                },
                UserTraffic {
                    watched_bytes: 100,
                    uploaded_bytes: 40,
                },
                UserTraffic::default(),
            ],
            daily: vec![
                cell(0, Some(IspId(0)), 200, 80),
                cell(1, Some(IspId(0)), 100, 20),
            ],
            total: ledger,
            degradation: Degradation::default(),
            warnings: Vec::new(),
        }
    }

    #[test]
    fn conservation_check_passes_and_fails() {
        let r = report();
        assert!(r.check_conservation().is_ok());
        let mut broken = r.clone();
        broken.users[0].watched_bytes += 1;
        assert!(broken.check_conservation().unwrap_err().contains("watched"));
        let mut broken = r.clone();
        broken.total.server_bytes += 5;
        assert!(broken.check_conservation().is_err());
        let mut broken = r;
        broken.users[1].uploaded_bytes = 0;
        assert!(broken
            .check_conservation()
            .unwrap_err()
            .contains("uploaded"));
    }

    #[test]
    fn degradation_merges_and_reports_offload_loss() {
        let mut total = Degradation::default();
        assert_eq!(total.offload_loss(300), Some(0.0));
        total.merge(&Degradation {
            failed_transfer_bytes: 30,
            failed_by_layer: [30, 0, 0],
            defection_windows: 2,
            failed_demand_bytes: 7,
        });
        total.merge(&Degradation {
            failed_transfer_bytes: 15,
            failed_by_layer: [5, 10, 0],
            defection_windows: 1,
            failed_demand_bytes: 11,
        });
        assert_eq!(total.failed_transfer_bytes, 45);
        assert_eq!(total.failed_by_layer, [35, 10, 0]);
        assert_eq!(total.defection_windows, 3);
        assert_eq!(total.failed_demand_bytes, 18);
        assert_eq!(total.offload_loss(300), Some(0.15));
        assert_eq!(total.offload_loss(0), None);

        let mut r = report();
        assert_eq!(r.offload_loss(), Some(0.0));
        r.degradation = total;
        assert_eq!(r.offload_loss(), Some(0.15));
    }

    #[test]
    fn daily_series_sorted_and_filtered() {
        let r = report();
        let series = r.daily_savings(Some(IspId(0)), &EnergyParams::valancius());
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 0);
        assert_eq!(series[1].0, 1);
        assert!(series[0].1 > series[1].1, "day 0 offloaded more");
        assert!(r
            .daily_savings(Some(IspId(3)), &EnergyParams::valancius())
            .is_empty());
    }

    #[test]
    fn isp_ledger_merges_days() {
        let r = report();
        let l = r.isp_ledger(Some(IspId(0)));
        assert_eq!(l.demand_bytes, 300);
        assert_eq!(l.peer_bytes(), 100);
    }

    #[test]
    fn active_users_skips_idle() {
        let r = report();
        let active: Vec<u32> = r.active_users().map(|(i, _)| i).collect();
        assert_eq!(active, vec![0, 1]);
    }

    #[test]
    fn windows_and_points() {
        let r = report();
        assert_eq!(r.total_windows(), 60);
        let pts = r.swarm_points(&EnergyParams::baliga());
        assert_eq!(pts.len(), 1);
        assert_eq!(
            pts[0].0, 0.15,
            "theory-comparison points use effective capacity"
        );
        assert_eq!(
            r.swarm_capacities(),
            vec![0.1],
            "distributions use time-averaged capacity"
        );
        assert!(r.total_savings(&EnergyParams::baliga()).unwrap() > 0.0);
    }
}
