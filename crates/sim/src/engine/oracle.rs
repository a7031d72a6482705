//! The test-only row oracle: a reference engine that keeps the pre-SoA
//! row-shaped window loop and matches every window, around production's
//! grouping, day spill and merge. The columnar engine is tested against it
//! here, on a generated trace and on property-generated sessions.

use consume_local_swarm::matching::MatchOutcome;
use consume_local_swarm::{Peer, SwarmKey};
use consume_local_trace::{SessionStore, SimTime};

use super::{
    add_user_bytes, align_up, before_horizon, defects, fold_cells, group_by_swarm, participates,
    sort_key_warnings, spill_days, swarm_seed, DayCell, Simulator, SwarmOutput, UserBytes,
    DEFECT_STREAM_TAG, RECV_DEFECT_STREAM_TAG,
};
use crate::ledger::ByteLedger;
use crate::report::{Degradation, SimReport, UserTraffic};

/// One active session with its per-window quantities precomputed at join
/// time (they are constant for the session's lifetime).
///
/// The production window loop keeps these quantities as the parallel
/// columns of [`ActiveSet`](super::machine::ActiveSet); this row shape
/// survives solely for the reference path ([`Simulator::run_store_rows`])
/// the SoA loop is property-tested against.
#[derive(Debug, Clone, Copy)]
struct ActiveSession {
    end: SimTime,
    /// Rank of the session's user among the swarm's sorted distinct users.
    user_slot: u32,
    peer: Peer,
    /// Full per-window demand `β·Δτ/8` in bytes, preload included.
    full_demand: u64,
    /// In-swarm per-window demand (full demand minus the preloaded part).
    demand: u64,
    /// Per-window bytes served by predictive preloading.
    preload: u64,
    /// Peer-receivable cap `min(demand, q·Δτ/8)`.
    need: u64,
    /// Per-window upload budget (0 for non-participants).
    budget: u64,
}

impl Simulator {
    /// The reference row-based engine: production's grouping, day spill
    /// and key-ordered merge around a per-swarm window loop that
    /// materialises [`ActiveSession`] rows instead of driving the columnar
    /// [`ActiveSet`](super::machine::ActiveSet), over the whole store in one
    /// pass. Kept only as the oracle the SoA fast path is property-tested
    /// against.
    pub(super) fn run_store_rows(&self, store: &SessionStore) -> SimReport {
        let store = &*before_horizon(store, store.horizon_secs());
        let (indices, keyed) = group_by_swarm(&self.config, store);
        let outputs = crate::par::parallel_map(keyed.len(), self.config.threads, |i| {
            let (key, range) = &keyed[i];
            self.simulate_swarm_rows(*key, &indices[range.clone()], store)
        });
        let mut users = vec![UserTraffic::default(); store.population_len()];
        let mut cells = Vec::new();
        let parts: Vec<(SwarmKey, u64, SwarmOutput)> = outputs
            .into_iter()
            .zip(&keyed)
            .map(|((out, swarm_cells, rows), (key, range))| {
                add_user_bytes(&mut users, &rows);
                cells.extend(swarm_cells);
                (*key, range.len() as u64, out)
            })
            .collect();
        let mut grouped = Vec::new();
        fold_cells(&mut grouped, cells);
        self.merge_outputs(
            store.horizon_secs(),
            users,
            parts,
            grouped,
            sort_key_warnings(store.sort_key_maxima()),
        )
    }

    /// The pre-SoA row-based window loop, kept verbatim as the oracle for
    /// property tests: materialises [`ActiveSession`] rows, rebuilds the
    /// matcher's peer/need/budget inputs every window and keeps its own
    /// per-user accumulators over the swarm's sorted distinct users. Its
    /// days spill at the end, so it returns its day × ISP cells too.
    fn simulate_swarm_rows(
        &self,
        key: SwarmKey,
        indices: &[u32],
        store: &SessionStore,
    ) -> (SwarmOutput, Vec<DayCell>, Vec<UserBytes>) {
        let dt = self.config.window_secs;
        let starts_col = store.start_secs();
        let durations_col = store.duration_secs();
        let users_col = store.user();
        let devices_col = store.device();
        let isps_col = store.isp();
        let locations_col = store.location();
        let mut matcher = self
            .config
            .matcher
            .build(swarm_seed(self.config.seed, &key));

        let mut out = SwarmOutput::default();
        let mut daily: Vec<(u32, ByteLedger)> = Vec::new();
        let mut swarm_users: Vec<u32> = indices.iter().map(|&i| users_col[i as usize]).collect();
        swarm_users.sort_unstable();
        swarm_users.dedup();
        let mut user_acc: Vec<(u64, u64)> = vec![(0, 0); swarm_users.len()];

        let first_bitrate = devices_col[indices[0] as usize].bitrate_bps();
        out.upload_ratio = self.config.upload.ratio_for(first_bitrate).min(1.0);

        let preload_f = self.config.preload_fraction;
        let cached = self
            .config
            .edge_cache
            .is_some_and(|c| key.content.0 < c.top_items);

        let mut active: Vec<ActiveSession> = Vec::new();
        let mut cursor = store.cursor(indices);
        let mut t = SimTime(align_up(starts_col[indices[0] as usize], dt));
        let horizon = SimTime(store.horizon_secs());

        let mut peers: Vec<Peer> = Vec::new();
        let mut needs: Vec<u64> = Vec::new();
        let mut budgets: Vec<u64> = Vec::new();
        let mut outcome = MatchOutcome::default();

        while t < horizon {
            active.retain(|a| a.end > t);
            cursor.admit_until(t.as_secs(), |i| {
                let end = SimTime(starts_col[i] + u64::from(durations_col[i]));
                if end > t {
                    let bitrate = devices_col[i].bitrate_bps();
                    let user = users_col[i];
                    let full_demand = u64::from(bitrate) * dt / 8;
                    let preload = (full_demand as f64 * preload_f) as u64;
                    let demand = full_demand - preload;
                    let nominal_budget = self.config.upload.budget_bytes(bitrate, dt);
                    let budget = if participates(user, self.config.participation_rate) {
                        nominal_budget
                    } else {
                        0
                    };
                    let user_slot = swarm_users
                        .binary_search(&user)
                        .expect("swarm_users indexes every session user")
                        as u32;
                    active.push(ActiveSession {
                        end,
                        user_slot,
                        peer: Peer {
                            isp: isps_col[i],
                            location: locations_col[i],
                        },
                        full_demand,
                        demand,
                        preload,
                        need: demand.min(nominal_budget),
                        budget,
                    });
                }
            });
            if active.is_empty() {
                let Some(next_start) = cursor.next_start_secs() else {
                    break;
                };
                t = SimTime(align_up(next_start, dt).max(t.as_secs() + dt));
                continue;
            }

            peers.clear();
            needs.clear();
            budgets.clear();
            let mut preload_total = 0u64;
            let mut swarm_demand = 0u64;
            let mut ineligible = 0u64;
            for (k, a) in active.iter().enumerate() {
                preload_total += a.preload;
                swarm_demand += a.demand;
                ineligible += if k == 0 { a.demand } else { a.demand - a.need };
                peers.push(a.peer);
                needs.push(a.need);
                budgets.push(a.budget);
            }
            // Mirror of the SoA loop's receiver-side flaking: a defecting
            // receiver's need is zeroed before matching and its deferred
            // demand lands in the fallback.
            let recv_defect_seed = swarm_seed(self.config.seed ^ RECV_DEFECT_STREAM_TAG, &key);
            let cooperation = self.config.cooperation_rate;
            let mut failed_demand = 0u64;
            for (k, a) in active.iter().enumerate().skip(1) {
                let user = swarm_users[a.user_slot as usize];
                if needs[k] > 0 && defects(recv_defect_seed, user, t.as_secs(), cooperation) {
                    failed_demand += needs[k];
                    needs[k] = 0;
                }
            }
            matcher.match_window_into(&peers, &needs, &budgets, 0, &mut outcome);

            // Mirror of the SoA loop's fault injection, keyed on the same
            // (swarm, user id, window) coin.
            let defect_seed = swarm_seed(self.config.seed ^ DEFECT_STREAM_TAG, &key);
            let mut failed_total = 0u64;
            let mut failed_by_layer = [0u64; 3];
            for (k, a) in active.iter().enumerate() {
                let acc = &mut user_acc[a.user_slot as usize];
                acc.0 += a.full_demand;
                let uploaded = outcome.per_peer[k].uploaded;
                let user = swarm_users[a.user_slot as usize];
                if uploaded > 0 && defects(defect_seed, user, t.as_secs(), cooperation) {
                    failed_total += uploaded;
                    for (f, u) in failed_by_layer
                        .iter_mut()
                        .zip(outcome.per_peer[k].uploaded_by_layer)
                    {
                        *f += u;
                    }
                } else {
                    acc.1 += uploaded;
                }
            }
            if failed_total > 0 || failed_demand > 0 {
                out.degradation.merge(&Degradation {
                    failed_transfer_bytes: failed_total,
                    failed_by_layer,
                    defection_windows: 1,
                    failed_demand_bytes: failed_demand,
                });
            }

            let demand_total = swarm_demand + preload_total;
            let fallback = ineligible + failed_demand + outcome.server_bytes + failed_total;
            let (server_total, cache_total, preload_srv, preload_cache) = if cached {
                (0, fallback, 0, preload_total)
            } else {
                (fallback, 0, preload_total, 0)
            };

            let mut peer_bytes_by_layer = outcome.peer_bytes_by_layer;
            for (p, f) in peer_bytes_by_layer.iter_mut().zip(failed_by_layer) {
                *p -= f;
            }
            let mut window_ledger = ByteLedger {
                demand_bytes: demand_total,
                server_bytes: server_total + preload_srv,
                peer_bytes_by_layer,
                cache_bytes: cache_total + preload_cache,
                preload_bytes: 0,
                active_windows: 1,
                peer_windows: active.len() as u64,
            };
            if !cached {
                window_ledger.server_bytes -= preload_srv;
                window_ledger.preload_bytes = preload_srv;
            }

            out.ledger.merge(&window_ledger);
            let day = (t.as_secs() / consume_local_trace::time::SECS_PER_DAY) as u32;
            match daily.last_mut() {
                Some((d, ledger)) if *d == day => ledger.merge(&window_ledger),
                _ => {
                    daily.push((day, std::mem::take(&mut window_ledger)));
                }
            }

            t = t + dt;
        }

        let mut cells = Vec::new();
        spill_days(&mut daily, u64::MAX, key.isp, &mut out.daily, &mut cells);
        let users = swarm_users
            .into_iter()
            .zip(user_acc)
            .map(|(u, (w, up))| (u, w, up))
            .collect();
        (out, cells, users)
    }
}

/// The columnar engine against the row oracle.
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::tests::tiny_trace;
    use consume_local_swarm::{MatcherKind, SwarmPolicy};
    use consume_local_topology::{ExchangeId, IspId};
    use consume_local_trace::device::DeviceClass;
    use consume_local_trace::{ContentId, SessionRecord, UserId};

    #[test]
    fn soa_active_set_matches_row_reference_on_generated_trace() {
        // The columnar window loop against the retained row-based oracle on
        // a real generated trace, across matchers and the config knobs that
        // feed the active set (preload, participation, cache).
        let trace = tiny_trace();
        let store = SessionStore::from_trace(&trace);
        let configs = [
            SimConfig::default(),
            SimConfig {
                matcher: MatcherKind::Random,
                ..Default::default()
            },
            SimConfig {
                preload_fraction: 0.3,
                participation_rate: 0.5,
                edge_cache: Some(crate::config::EdgeCache { top_items: 2 }),
                window_secs: 30,
                ..Default::default()
            },
            SimConfig {
                cooperation_rate: 0.5,
                ..Default::default()
            },
        ];
        for cfg in configs {
            let sim = Simulator::new(cfg);
            assert_eq!(sim.simulate(&store), sim.run_store_rows(&store));
        }
    }

    mod soa_properties {
        use super::*;
        use consume_local_topology::IspTopology;
        use proptest::prelude::*;

        /// Random session records over a tiny world: 40 users across 2
        /// ISPs / 8 exchanges, 6 items, a 2-day horizon, devices drawn from
        /// the real mix. Small enough that swarms overlap heavily, large
        /// enough to exercise admit/retire churn and the idle-gap jump.
        /// Starts run 2 h past the horizon, so both paths meet sessions
        /// they must leave out.
        fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
            let record = (
                0u32..40,                 // user
                0u32..6,                  // content
                0u64..2 * 86_400 + 7_200, // start
                60u32..5_000,             // duration
                0usize..5,                // device (MIX index)
                0u8..2,                   // isp
                0u32..8,                  // exchange
            )
                .prop_map(|(user, content, start, duration, device, isp, exchange)| {
                    let topo = IspTopology::new(8, 2).unwrap();
                    SessionRecord {
                        user: UserId(user),
                        content: ContentId(content),
                        start: SimTime(start),
                        duration_secs: duration,
                        device: DeviceClass::MIX[device].0,
                        isp: IspId(isp),
                        location: topo.location_of(ExchangeId(exchange)),
                    }
                });
            proptest::collection::vec(record, 1..60)
        }

        proptest! {
            #[test]
            fn prop_soa_and_row_paths_agree(
                records in records_strategy(),
                matcher_pick in 0u8..2,
                window_secs in 5u64..600,
                participation_pct in 30u64..=100,
                cooperation_pct in 40u64..=100,
            ) {
                let store = SessionStore::from_records(&records, 2 * 86_400, 40);
                let cfg = SimConfig {
                    matcher: if matcher_pick == 1 {
                        MatcherKind::Random
                    } else {
                        MatcherKind::Hierarchical
                    },
                    window_secs,
                    participation_rate: participation_pct as f64 / 100.0,
                    cooperation_rate: cooperation_pct as f64 / 100.0,
                    ..Default::default()
                };
                let sim = Simulator::new(cfg);
                let soa = sim.simulate(&store);
                let rows = sim.run_store_rows(&store);
                prop_assert_eq!(soa, rows);
            }

            /// Replayed membership runs against the row oracle, which
            /// matches every window: long sessions on a world of 2 items
            /// and 4 exchanges give multi-peer runs that span many upload
            /// rotation cycles and cross midnight, and a random batch
            /// schedule pauses runs mid-cycle. Partial participation and
            /// unsplit swarms (mixed ISPs and bitrates) make the cycle's
            /// window ledgers differ by rotation, not only its uploads. At
            /// a random batch boundary the run is checkpointed and resumed
            /// from the snapshot, so the per-user rows the oracle keeps by
            /// itself also pin the snapshot's per-session and per-user
            /// bytes. The oracle's report does not depend on the thread
            /// count, so each cooperation rate computes it once.
            #[test]
            fn prop_replayed_runs_match_row_oracle_under_any_batch_schedule(
                records in long_sessions_strategy(),
                cuts in proptest::collection::vec(0u64..LONG_HORIZON, 0..8),
                resume_pick in 0usize..9,
                window_secs in 10u64..120,
                cooperation_pct in 50u64..100,
                participation_pct in 30u64..=100,
                matcher_pick in 0u8..2,
                split in 0u8..2,
            ) {
                let store = SessionStore::from_records(&records, LONG_HORIZON, 12);
                let mut watermarks = cuts;
                watermarks.sort_unstable();
                watermarks.push(LONG_HORIZON);
                let resume_at = resume_pick % watermarks.len();
                for cooperation_rate in [1.0, cooperation_pct as f64 / 100.0] {
                    let config = |threads| SimConfig {
                        matcher: if matcher_pick == 1 {
                            MatcherKind::Random
                        } else {
                            MatcherKind::Hierarchical
                        },
                        window_secs,
                        cooperation_rate,
                        participation_rate: participation_pct as f64 / 100.0,
                        policy: SwarmPolicy {
                            split_by_isp: split == 1,
                            split_by_bitrate: split == 1,
                        },
                        threads,
                        ..Default::default()
                    };
                    let oracle = Simulator::new(config(1)).run_store_rows(&store);
                    for threads in [1, 2] {
                        let sim = Simulator::new(config(threads));
                        let mut run = sim.begin(LONG_HORIZON, 12);
                        let mut from = 0;
                        for (i, &watermark) in watermarks.iter().enumerate() {
                            if i == resume_at {
                                let mut snapshot = Vec::new();
                                run.checkpoint(&mut snapshot).unwrap();
                                run = Simulator::resume(&mut snapshot.as_slice()).unwrap();
                            }
                            let batch: Vec<SessionRecord> = records
                                .iter()
                                .filter(|r| (from..watermark).contains(&r.start.as_secs()))
                                .copied()
                                .collect();
                            run.push_batch(
                                &SessionStore::from_records(&batch, LONG_HORIZON, 12),
                                watermark,
                            );
                            from = watermark;
                        }
                        prop_assert_eq!(&run.finish(), &oracle);
                    }
                }
            }
        }

        /// Horizon of [`long_sessions_strategy`]: 3 days, so a session
        /// starting late on day 2 still fits a whole day.
        const LONG_HORIZON: u64 = 3 * 86_400;

        /// Long sessions (1 h to 1 day) by 12 users on 2 items, across 2
        /// ISPs and 4 exchanges in 2 PoPs: swarms hold several peers for
        /// hours at a stretch.
        fn long_sessions_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
            let record = (
                0u32..12,          // user
                0u32..2,           // content
                0u64..2 * 86_400,  // start
                3_600u32..=86_400, // duration
                0usize..5,         // device (MIX index)
                0u8..2,            // isp
                0u32..4,           // exchange
            )
                .prop_map(|(user, content, start, duration, device, isp, exchange)| {
                    let topo = IspTopology::new(4, 2).unwrap();
                    SessionRecord {
                        user: UserId(user),
                        content: ContentId(content),
                        start: SimTime(start),
                        duration_secs: duration,
                        device: DeviceClass::MIX[device].0,
                        isp: IspId(isp),
                        location: topo.location_of(ExchangeId(exchange)),
                    }
                });
            proptest::collection::vec(record, 1..20)
        }
    }
}
