//! The trace generator: catalogue × population × arrival processes →
//! a time-sorted stream of sessions.

use std::fmt;

use rand::Rng;

use consume_local_stats::dist::{Categorical, Distribution, LogNormal, Poisson, TabulatedQuantile};
use consume_local_stats::par::{parallel_map, parallel_map_slices};
use consume_local_stats::rng::SeedDerive;
use consume_local_topology::IspRegistry;

use crate::arrival::{age_decay_weights, boosted_day_shares, DiurnalProfile};
use crate::churn::{ChurnConfig, ChurnConfigError};
use crate::content::{Catalogue, ContentItem};
use crate::device::DeviceClass;
use crate::popularity::Popularity;
use crate::population::{Population, UserId};
use crate::session::SessionRecord;
use crate::store::SessionStore;
use crate::time::{SimTime, SECS_PER_HOUR};

/// Configuration of a synthetic trace. Start from a preset
/// ([`TraceConfig::london_sep2013`]) and [`TraceConfig::scaled`] it down for
/// experimentation; all knobs are public for custom workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Days in the traced window.
    pub days: u32,
    /// Population size. Slightly above the paper's *active* user count
    /// because a share of light users watch nothing in a given month.
    pub users: u32,
    /// Target total session count across the window.
    pub sessions_target: u64,
    /// Catalogue size in items.
    ///
    /// Scaling note: [`TraceConfig::scaled`] shrinks the catalogue together
    /// with sessions so that *mean* per-item view counts stay at the
    /// paper's level. The catalogue *head* still shrinks with scale (the
    /// popularity normaliser covers fewer items), so scaled runs have
    /// smaller top-swarm capacities than full-scale London, and absolute
    /// savings sit below the paper's while their orderings and shapes hold.
    pub catalogue_size: u32,
    /// Popularity model over the catalogue ranks.
    pub popularity: Popularity,
    /// Mean watched fraction of an episode (linear-space mean of a
    /// log-normal).
    pub mean_watch_fraction: f64,
    /// Log-space sigma of the watched fraction.
    pub watch_sigma: f64,
    /// Hour-of-day viewing profile.
    pub diurnal: DiurnalProfile,
    /// The ISPs users subscribe to.
    pub registry: IspRegistry,
    /// Churn & fault injection (session fragmentation, flash crowds).
    /// The default is disabled and leaves the trace byte-identical.
    pub churn: ChurnConfig,
}

impl TraceConfig {
    /// Full-scale September 2013 (Table I: 3.3 M active users, 23.5 M
    /// sessions, 30 days).
    pub fn london_sep2013() -> Self {
        Self {
            days: 30,
            users: 3_600_000,
            sessions_target: 23_500_000,
            catalogue_size: 24_000,
            popularity: Popularity::catchup_tv(),
            mean_watch_fraction: 0.72,
            watch_sigma: 0.5,
            diurnal: DiurnalProfile::evening_peak(),
            registry: IspRegistry::london_top5(),
            churn: ChurnConfig::default(),
        }
    }

    /// Full-scale July 2014 (Table I: 3.6 M active users, 24.2 M sessions,
    /// 31 days).
    pub fn london_jul2014() -> Self {
        Self {
            days: 31,
            users: 3_950_000,
            sessions_target: 24_200_000,
            catalogue_size: 24_800,
            ..Self::london_sep2013()
        }
    }

    /// Scales users, sessions and catalogue size by `scale ∈ (0, 1]`,
    /// preserving per-item view counts (see the `catalogue_size` field docs).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when `scale` is outside `(0, 1]`.
    pub fn scaled(mut self, scale: f64) -> Result<Self, TraceError> {
        if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
            return Err(TraceError::BadConfig {
                field: "scale",
                value: scale,
            });
        }
        self.users = ((f64::from(self.users) * scale).round() as u32).max(1);
        self.sessions_target = ((self.sessions_target as f64 * scale).round() as u64).max(1);
        self.catalogue_size = ((f64::from(self.catalogue_size) * scale).round() as u32).max(1);
        Ok(self)
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`TraceError`].
    pub fn validate(&self) -> Result<(), TraceError> {
        let bad = |field: &'static str, value: f64| Err(TraceError::BadConfig { field, value });
        if self.days == 0 {
            return bad("days", 0.0);
        }
        if self.users == 0 {
            return bad("users", 0.0);
        }
        if self.sessions_target == 0 {
            return bad("sessions_target", 0.0);
        }
        if self.catalogue_size == 0 {
            return bad("catalogue_size", 0.0);
        }
        if self.popularity.validate().is_err() {
            return bad("popularity", f64::NAN);
        }
        if !(0.0..=1.0).contains(&self.mean_watch_fraction) || self.mean_watch_fraction == 0.0 {
            return bad("mean_watch_fraction", self.mean_watch_fraction);
        }
        if !self.watch_sigma.is_finite() || self.watch_sigma <= 0.0 {
            return bad("watch_sigma", self.watch_sigma);
        }
        self.churn.validate()?;
        Ok(())
    }

    /// The traced horizon in seconds.
    pub fn horizon_seconds(&self) -> u64 {
        u64::from(self.days) * crate::time::SECS_PER_DAY
    }
}

/// Named workload scales for sweeps and benchmarks: each preset is a fixed
/// fraction of full-scale September-2013 London, chosen so experiment suites
/// can talk about "smoke" or "large" runs instead of raw scale fractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalePreset {
    /// ≈ 1 K users / 7 K sessions — CI smoke tests.
    Smoke,
    /// ≈ 4 K users / 23 K sessions — fast local iteration.
    Small,
    /// ≈ 18 K users / 117 K sessions — the benchmark reference scenario.
    Medium,
    /// ≈ 180 K users / 1.2 M sessions — the committed figure scale.
    Large,
    /// Full-scale London (3.6 M users / 23.5 M sessions).
    Full,
}

impl ScalePreset {
    /// Every preset, smallest first.
    pub const ALL: [ScalePreset; 5] = [
        ScalePreset::Smoke,
        ScalePreset::Small,
        ScalePreset::Medium,
        ScalePreset::Large,
        ScalePreset::Full,
    ];

    /// The scale fraction this preset applies.
    pub fn scale(self) -> f64 {
        match self {
            ScalePreset::Smoke => 0.0003,
            ScalePreset::Small => 0.001,
            ScalePreset::Medium => 0.005,
            ScalePreset::Large => 0.05,
            ScalePreset::Full => 1.0,
        }
    }

    /// A stable lower-case name for result files and bench ids.
    pub fn name(self) -> &'static str {
        match self {
            ScalePreset::Smoke => "smoke",
            ScalePreset::Small => "small",
            ScalePreset::Medium => "medium",
            ScalePreset::Large => "large",
            ScalePreset::Full => "full",
        }
    }

    /// Applies the preset to a base configuration.
    pub fn apply(self, base: TraceConfig) -> TraceConfig {
        base.scaled(self.scale())
            .expect("preset scales are in (0, 1]")
    }
}

impl fmt::Display for ScalePreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from trace configuration or generation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A configuration field is out of range.
    BadConfig {
        /// The field name.
        field: &'static str,
        /// The offending value (0.0 stands in for zero integer fields).
        value: f64,
    },
    /// The churn & fault-injection block is invalid.
    Churn(ChurnConfigError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadConfig { field, value } => {
                write!(f, "invalid trace config: `{field}` = {value}")
            }
            TraceError::Churn(e) => write!(f, "invalid churn config: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::BadConfig { .. } => None,
            TraceError::Churn(e) => Some(e),
        }
    }
}

impl From<ChurnConfigError> for TraceError {
    fn from(e: ChurnConfigError) -> Self {
        TraceError::Churn(e)
    }
}

/// A generated trace: the sessions plus the world they were generated from.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    config: TraceConfig,
    catalogue: Catalogue,
    population: Population,
    sessions: Vec<SessionRecord>,
}

impl Trace {
    /// The sessions, sorted by start time.
    pub fn sessions(&self) -> &[SessionRecord] {
        &self.sessions
    }

    /// The content catalogue.
    pub fn catalogue(&self) -> &Catalogue {
        &self.catalogue
    }

    /// The user population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The generating configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The traced horizon in seconds.
    pub fn horizon_seconds(&self) -> u64 {
        self.config.horizon_seconds()
    }

    /// Assembles a trace from parts (for custom workloads or tests);
    /// sessions are sorted by start time on the way in.
    pub fn from_parts(
        config: TraceConfig,
        catalogue: Catalogue,
        population: Population,
        mut sessions: Vec<SessionRecord>,
    ) -> Self {
        sort_sessions(&mut sessions);
        Self {
            config,
            catalogue,
            population,
            sessions,
        }
    }
}

/// Canonical trace order: `(start, user, content)`, compared as one packed
/// 128-bit key so the hot sort does a single integer comparison per element.
///
/// `sort_unstable` is deterministic for a given input sequence, so the
/// parallel generator (which concatenates per-item results in catalogue
/// order, independent of worker count) produces byte-identical traces for
/// any worker count.
pub(crate) fn sort_sessions(sessions: &mut [SessionRecord]) {
    sessions.sort_unstable_by_key(session_sort_key);
}

fn session_sort_key(s: &SessionRecord) -> u128 {
    (u128::from(s.start.as_secs()) << 64) | (u128::from(s.user.0) << 32) | u128::from(s.content.0)
}

/// Merges per-item session batches into canonical trace order
/// with one exact-size allocation: a counting pass sizes per-start-hour
/// buckets, a placement pass scatters the records hour-major (stable within
/// a bucket, so the layout is independent of worker count), and each bucket
/// then sorts independently. Sorting ~720 L1-resident hour slices beats one
/// global sort of the scrambled concatenation — the start column only
/// interleaves *within* an hour, never across hours. Sparse input, whose
/// start hours outnumber its records more than 8 to 1, sorts as one bucket
/// instead, so memory follows the record count, not the clock.
///
/// The per-bucket sorts fan out across up to `workers` threads over the
/// disjoint bucket slices ([`parallel_map_slices`]):
/// every bucket sorts to the same bytes no matter which worker picks it up,
/// so the merged trace is **byte-identical for any worker count** (the
/// counting and scatter passes stay serial — they are cheap, order-defining
/// passes). This is the merge phase of [`TraceGenerator::generate`]; it is
/// public so benchmarks and custom pipelines can drive it directly.
pub fn merge_session_batches(
    per_item: &[Vec<SessionRecord>],
    workers: usize,
) -> Vec<SessionRecord> {
    merge_session_batches_inner(per_item, workers, false)
}

/// [`merge_session_batches`] with the compact key path disabled: every hour
/// bucket takes the wide record sort regardless of the measured maxima.
/// Output is byte-identical to the fast path — this entry exists so tests
/// can pin that equivalence on demand (the legacy fallback is otherwise
/// unreachable below pathological maxima).
#[doc(hidden)]
pub fn merge_session_batches_wide(
    per_item: &[Vec<SessionRecord>],
    workers: usize,
) -> Vec<SessionRecord> {
    merge_session_batches_inner(per_item, workers, true)
}

/// Hours per record past which [`merge_session_batches`] stops bucketing by
/// hour and sorts all records as one bucket (the bucket arrays would then
/// be mostly empty slots).
const SPARSE_HOURS_PER_RECORD: u64 = 8;

fn merge_session_batches_inner(
    per_item: &[Vec<SessionRecord>],
    workers: usize,
    force_wide: bool,
) -> Vec<SessionRecord> {
    let total: usize = per_item.iter().map(Vec::len).sum();
    let Some(&fill) = per_item.iter().find_map(|batch| batch.first()) else {
        return Vec::new();
    };
    let hour_of = |s: &SessionRecord| s.start.as_secs() / SECS_PER_HOUR;
    let hours = 1 + per_item
        .iter()
        .flatten()
        .map(hour_of)
        .max()
        .expect("total > 0");
    // The bucket arrays grow with the hour span, not the record count: a
    // handful of records stamped far out (a start of 2^40 s spans 3·10^8
    // hours) would allocate gigabytes of empty buckets. When hours
    // outnumber records that far, everything sorts as one bucket — the
    // same canonical order, since the order leads with the start time.
    let sparse = hours > (total as u64).saturating_mul(SPARSE_HOURS_PER_RECORD);
    let bucket_of = |s: &SessionRecord| if sparse { 0 } else { hour_of(s) as usize };
    let buckets = if sparse { 1 } else { hours as usize };

    let mut cursors = vec![0usize; buckets];
    for batch in per_item {
        for s in batch {
            cursors[bucket_of(s)] += 1;
        }
    }
    let mut offsets = Vec::with_capacity(buckets + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for c in &mut cursors {
        let count = *c;
        *c = acc; // cursor now points at the bucket's first slot
        acc += count;
        offsets.push(acc);
    }
    debug_assert_eq!(acc, total);

    // Exact post-count reservation: per-item counts are known, so the merge
    // allocates once instead of over-reserving up front (`fill` is
    // overwritten in every slot).
    let mut sessions = vec![fill; total];
    for batch in per_item {
        for s in batch {
            let cursor = &mut cursors[bucket_of(s)];
            sessions[*cursor] = *s;
            *cursor += 1;
        }
    }
    // Hour buckets are L1-resident (~7 KB at medium scale), so sorting
    // compact 16-byte `(key, index)` pairs and gathering once moves less
    // memory than swapping 40-byte records through a comparison sort. The
    // 64-bit key layout is sized from the measured maxima below, so any
    // scenario whose joint field widths fit 64 bits — every London and
    // metro preset — sorts on this fast path; truly pathological worlds
    // take the plain record sort.
    let (mut max_start, mut max_user, mut max_content) = (0u64, 0u32, 0u32);
    for s in &sessions {
        max_start = max_start.max(s.start.as_secs());
        max_user = max_user.max(s.user.0);
        max_content = max_content.max(s.content.0);
    }
    let layout = if force_wide {
        None
    } else {
        SortKeyLayout::from_maxima((max_start, max_user, max_content))
    };
    parallel_map_slices(&mut sessions, &offsets, workers, |_, slice| {
        sort_bucket(slice, layout);
    });
    sessions
}

/// Sorts one hour bucket into canonical order — via compact 64-bit
/// key/index pairs when the scenario fits a [`SortKeyLayout`], via the
/// plain record sort otherwise. Scratch is bucket-local, so buckets sort
/// independently on any thread.
fn sort_bucket(slice: &mut [SessionRecord], layout: Option<SortKeyLayout>) {
    if slice.len() < 2 {
        return;
    }
    let Some(layout) = layout else {
        slice.sort_unstable_by_key(session_sort_key);
        return;
    };
    let mut keys: Vec<(u64, u32)> = slice
        .iter()
        .enumerate()
        .map(|(i, s)| (layout.pack(s), i as u32))
        .collect();
    keys.sort_unstable();
    let scratch: Vec<SessionRecord> = keys.iter().map(|&(_, i)| slice[i as usize]).collect();
    slice.copy_from_slice(&scratch);
}

/// The dynamic bit layout of the compact 64-bit session sort key.
///
/// The key packs `(start seconds, user id, content id)` most-significant
/// first, with each field's width sized from the **measured trace maxima**
/// — `bits(field) = bits needed to hold the largest observed value`. A
/// layout exists iff the three widths jointly fit 64 bits; packed keys
/// then compare exactly like the lexicographic `(start, user, content)`
/// tuple, because no field can overflow into its neighbour. Scenarios that
/// blow one [`sort_key_bounds`] bound but are slack elsewhere (a 31-day
/// metro month with 18 M users uses 22 + 25 + 17 = 64 bits) still sort on
/// the fast path; only jointly pathological shapes fall back to the wide
/// record sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKeyLayout {
    /// Bit width of the user-id field.
    user_bits: u32,
    /// Bit width of the content-id field.
    item_bits: u32,
}

impl SortKeyLayout {
    /// Sizes a layout from measured `(max start seconds, max user id, max
    /// content id)`. Returns `None` when the joint field widths exceed 64
    /// bits — the wide-record-sort fallback condition, shared verbatim by
    /// [`sort_key_fallback_required`], `TraceStats::sort_key_fallback` and
    /// the engine's `SortKeyFallback` warning.
    pub fn from_maxima(maxima: (u64, u32, u32)) -> Option<Self> {
        let (max_start, max_user, max_content) = maxima;
        let start_bits = u64::BITS - max_start.leading_zeros();
        let user_bits = u32::BITS - max_user.leading_zeros();
        let item_bits = u32::BITS - max_content.leading_zeros();
        if start_bits + user_bits + item_bits <= u64::BITS {
            Some(Self {
                user_bits,
                item_bits,
            })
        } else {
            None
        }
    }

    /// Packs one record into its 64-bit key. Keys from the same layout
    /// order exactly like the canonical `(start, user, content)` tuple.
    pub fn pack(&self, s: &SessionRecord) -> u64 {
        // `wrapping_shl` covers the one degenerate shape where
        // user_bits + item_bits == 64: `from_maxima` then guarantees
        // start_bits == 0, i.e. every start is 0 and the shifted value is 0
        // either way.
        s.start
            .as_secs()
            .wrapping_shl(self.user_bits + self.item_bits)
            | (u64::from(s.user.0) << self.item_bits)
            | u64::from(s.content.0)
    }

    /// Unpacks a key back into `(start seconds, user id, content id)` —
    /// the inverse of [`SortKeyLayout::pack`] for any record within the
    /// maxima the layout was sized from.
    pub fn unpack(&self, key: u64) -> (u64, u32, u32) {
        let item_mask = (1u128 << self.item_bits) - 1;
        let user_mask = (1u128 << self.user_bits) - 1;
        let item = (u128::from(key) & item_mask) as u32;
        let user = ((u128::from(key) >> self.item_bits) & user_mask) as u32;
        let start = u128::from(key) >> (self.user_bits + self.item_bits);
        (start as u64, user, item)
    }
}

/// Whether `(max start seconds, max user id, max content id)` force the
/// wide record-sort fallback: true iff no [`SortKeyLayout`] fits. This
/// predicate is the **single source of truth** for the fallback condition —
/// the merge path, [`crate::TraceStats::sort_key_fallback`] and the
/// engine's `SimWarning::SortKeyFallback` all call it (directly or through
/// [`SortKeyLayout::from_maxima`]), so packing, stats and warning can never
/// disagree.
pub fn sort_key_fallback_required(maxima: (u64, u32, u32)) -> bool {
    SortKeyLayout::from_maxima(maxima).is_none()
}

/// Guaranteed-simultaneous bounds of the compact 64-bit session sort key:
/// any trace whose fields are *all* strictly below these bounds is
/// guaranteed the fast path (23 + 24 + 17 = 64 bits). They are a floor,
/// not a ceiling — the layout is sized from measured maxima
/// ([`SortKeyLayout::from_maxima`]), so a scenario over one bound still
/// sorts compact while the others leave slack (e.g. 18 M users in a
/// 31-day horizon). Every London and metro preset fits; only jointly
/// pathological worlds take the (identical-output, slower) wide record
/// sort — [`crate::TraceStats::sort_key_fallback`] reports which path a
/// trace takes, and the simulation engine surfaces the measured maxima as
/// a structured `SimReport` warning (it reads them off
/// [`crate::SessionStore::sort_key_maxima`]).
pub mod sort_key_bounds {
    /// Start-time bound: 2²³ seconds ≈ 97-day horizons.
    pub const START_SECS: u64 = 1 << 23;
    /// User-id bound: 2²⁴ ≈ 16.8 M users.
    pub const USERS: u32 = 1 << 24;
    /// Content-id bound: 2¹⁷ ≈ 131 K items.
    pub const ITEMS: u32 = 1 << 17;
}

/// The generator: a [`TraceConfig`] plus a master seed.
///
/// Generation is deterministic in the seed, and every component draws from
/// its own derived stream, so e.g. enlarging the catalogue does not perturb
/// the population. Per-content-item session synthesis additionally owns an
/// *indexed* stream (`stream_indexed("arrivals", item)`), which is what lets
/// [`TraceGenerator::workers`] fan items across threads while keeping the
/// generated trace **byte-identical** to the serial one: per-item results
/// depend only on the item's own stream, and the merge concatenates them in
/// catalogue order before the canonical global sort.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
    seeds: SeedDerive,
    workers: usize,
}

/// Affinity of a user with mainstreamness `m` for each popularity tier
/// (head = top 1 % of items, mid = next 9 %, tail = rest).
///
/// The contrast is strong by design: catch-up TV audiences split into
/// hit-watchers and niche browsers, which is what produces the bimodal
/// per-user carbon outcome of Fig. 6 (many carbon-positive mainstream users,
/// a long negative tail of niche viewers).
fn tier_affinity(mainstreamness: f64, tier: usize) -> f64 {
    match tier {
        0 => 0.10 + 0.90 * mainstreamness,
        1 => 0.70,
        _ => 1.00 - 0.90 * mainstreamness,
    }
}

/// Tier of an item given its rank and the catalogue size.
fn tier_of(rank: u32, catalogue_size: u32) -> usize {
    let frac = f64::from(rank) / f64::from(catalogue_size.max(1));
    if frac < 0.01 {
        0
    } else if frac < 0.10 {
        1
    } else {
        2
    }
}

/// The shared, read-only sampling context of one `generate()` call: built
/// once, then borrowed by every per-item synthesis task.
struct Samplers {
    /// Per-tier viewer samplers: weight = activity × taste affinity.
    viewer_tables: Vec<Categorical>,
    device_sampler: Categorical,
    /// Hour-of-day sampler over the diurnal profile (the hour factor of the
    /// non-homogeneous Poisson rate, identical for every item and day).
    hour_sampler: Categorical,
    /// Tabulated watched-fraction quantiles: one uniform draw per session
    /// instead of a polar-method normal plus `exp`.
    watch_table: TabulatedQuantile,
}

impl TraceGenerator {
    /// Interpolation intervals in the watched-fraction quantile table; CDF
    /// error is bounded by `1/RESOLUTION`, far below the generator's
    /// statistical tolerances.
    const WATCH_TABLE_RESOLUTION: usize = 2048;

    /// Creates a (serial) generator; see [`TraceGenerator::workers`] for the
    /// parallel fan-out.
    pub fn new(config: TraceConfig, seed: u64) -> Self {
        Self {
            config,
            seeds: SeedDerive::new(seed),
            workers: 1,
        }
    }

    /// Fans per-item session synthesis across up to `workers` threads
    /// (clamped to at least one). The generated trace is byte-identical for
    /// every worker count — each item draws from its own indexed RNG stream
    /// and results merge in catalogue order.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Generates the trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the configuration fails
    /// [`TraceConfig::validate`].
    pub fn generate(&self) -> Result<Trace, TraceError> {
        self.config.validate()?;
        let (catalogue, population, samplers) = self.build_world();

        // Fan per-item synthesis out across workers. Each item's sessions
        // are a pure function of the item and its own RNG stream, so the
        // per-item vectors are identical for any worker count; slot-ordered
        // placement keeps the merge in catalogue order.
        let items = catalogue.items();
        let per_item: Vec<Vec<SessionRecord>> = parallel_map(items.len(), self.workers, |i| {
            self.synthesise_item(&items[i], &catalogue, &population, &samplers)
        });
        let sessions = merge_session_batches(&per_item, self.workers);
        Ok(Trace {
            config: self.config.clone(),
            catalogue,
            population,
            sessions,
        })
    }

    /// Builds the deterministic world of one generation run: the catalogue,
    /// the population and the shared read-only samplers. Each component
    /// draws from its own derived stream, so this is identical for the
    /// monolithic and segmented emit paths.
    fn build_world(&self) -> (Catalogue, Population, Samplers) {
        let cfg = &self.config;
        let catalogue = Catalogue::generate(
            cfg.catalogue_size,
            cfg.popularity,
            cfg.days,
            &mut self.seeds.stream("catalogue"),
        )
        .expect("validated config");
        let population = Population::generate(
            cfg.users,
            &cfg.registry,
            &mut self.seeds.stream("population"),
        )
        .expect("validated config");

        let viewer_tables: Vec<Categorical> = (0..3)
            .map(|tier| {
                let weights: Vec<f64> = population
                    .users()
                    .iter()
                    .map(|u| u.activity * tier_affinity(u.mainstreamness, tier))
                    .collect();
                Categorical::new(&weights).expect("population activity weights are positive")
            })
            .collect();
        let watch_dist = LogNormal::with_mean(cfg.mean_watch_fraction, cfg.watch_sigma)
            .expect("validated config");
        let samplers = Samplers {
            viewer_tables,
            device_sampler: DeviceClass::mix_sampler(),
            hour_sampler: Categorical::new(cfg.diurnal.weights())
                .expect("diurnal weights are normalised"),
            watch_table: TabulatedQuantile::from_quantile(Self::WATCH_TABLE_RESOLUTION, |p| {
                watch_dist.quantile(p)
            })
            .expect("log-normal quantiles are monotone"),
        };
        (catalogue, population, samplers)
    }

    /// Opens the **segmented emit mode**: a [`SegmentStream`] that
    /// synthesises and merges sessions one day at a time, yielding each day
    /// as a columnar [`SessionStore`] segment.
    ///
    /// Every item keeps a persistent RNG positioned exactly where the
    /// monolithic generator's day loop would have it, so the concatenated
    /// segments are **byte-identical** to [`TraceGenerator::generate`]'s
    /// trace (columnarised) — while peak memory holds one day instead of
    /// the whole horizon. Per-day synthesis fans across
    /// [`TraceGenerator::workers`] threads and each day's merge reuses the
    /// hour-bucketed parallel [`merge_session_batches`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the configuration fails
    /// [`TraceConfig::validate`].
    ///
    /// # Example
    ///
    /// ```
    /// use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
    ///
    /// # fn main() -> Result<(), consume_local_trace::TraceError> {
    /// let generator = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 9);
    /// let monolithic = SessionStore::from_trace(&generator.generate()?);
    /// let mut stream = generator.segments()?;
    /// let mut total = 0;
    /// while let Some(segment) = stream.next_segment() {
    ///     total += segment.len(); // one resident day at a time
    /// }
    /// assert_eq!(total, monolithic.len());
    /// # Ok(())
    /// # }
    /// ```
    pub fn segments(&self) -> Result<SegmentStream<'_>, TraceError> {
        self.config.validate()?;
        let (catalogue, population, samplers) = self.build_world();
        let plans: Vec<ItemPlan> = catalogue
            .items()
            .iter()
            .map(|item| self.item_plan(item, &catalogue))
            .collect();
        let streams: Vec<ItemStream> = catalogue
            .items()
            .iter()
            .map(|item| ItemStream {
                rng: self.seeds.stream_indexed("arrivals", u64::from(item.id.0)),
                pending: Vec::new(),
            })
            .collect();
        let rng_offsets: Vec<usize> = (0..=streams.len()).collect();
        Ok(SegmentStream {
            generator: self,
            catalogue,
            population,
            samplers,
            plans,
            streams,
            rng_offsets,
            next_day: 0,
        })
    }

    /// Synthesises every session of one content item from the item's own
    /// RNG stream.
    ///
    /// Arrival sampling is day-level: the non-homogeneous Poisson rate
    /// factorises into `expected_views × day_share × hour_weight`, so one
    /// `Poisson(expected_views × day_share)` draw fixes the day's session
    /// count and each session then draws its hour from the (shared) diurnal
    /// sampler. This hoists the `Poisson` construction out of the old
    /// 24-iteration hour loop and skips a day's synthesis entirely when its
    /// count comes up zero — the old per-(day, hour) loop paid an `exp` and
    /// an RNG draw for every tiny-but-positive window rate.
    ///
    /// The day loop is [`TraceGenerator::synthesise_item_day`] — the same
    /// body the segmented emitter ([`TraceGenerator::segments`]) drives one
    /// day at a time with a persistent per-item RNG, which is why the two
    /// paths draw identical session streams.
    fn synthesise_item(
        &self,
        item: &ContentItem,
        catalogue: &Catalogue,
        population: &Population,
        samplers: &Samplers,
    ) -> Vec<SessionRecord> {
        let plan = self.item_plan(item, catalogue);
        if plan.day_shares.is_none() {
            return Vec::new();
        }
        let mut rng = self.seeds.stream_indexed("arrivals", u64::from(item.id.0));
        let mut out = Vec::with_capacity(plan.expected_views.ceil() as usize + 4);
        for day in 0..self.config.days {
            self.synthesise_item_day(item, &plan, day, samplers, population, &mut rng, &mut out);
        }
        out
    }

    /// Precomputes the parts of an item's synthesis that do not consume its
    /// RNG stream: expected views, popularity tier and per-day arrival
    /// shares (`None` when the item generates nothing).
    fn item_plan(&self, item: &ContentItem, catalogue: &Catalogue) -> ItemPlan {
        let cfg = &self.config;
        let expected_views = catalogue.popularity_share(item.id) * cfg.sessions_target as f64;
        let day_shares = if expected_views <= 0.0 {
            None
        } else {
            age_decay_weights(item.broadcast_day, cfg.days)
                .map(|weights| boosted_day_shares(&weights))
        };
        ItemPlan {
            expected_views,
            tier: tier_of(item.id.0, cfg.catalogue_size),
            day_shares,
        }
    }

    /// Synthesises one item's sessions for one day, continuing the item's
    /// RNG stream exactly where the previous day left it. Appends to `out`.
    #[allow(clippy::too_many_arguments)]
    fn synthesise_item_day<R: Rng + ?Sized>(
        &self,
        item: &ContentItem,
        plan: &ItemPlan,
        day: u32,
        samplers: &Samplers,
        population: &Population,
        rng: &mut R,
        out: &mut Vec<SessionRecord>,
    ) {
        let Some(day_shares) = &plan.day_shares else {
            return;
        };
        let churn = &self.config.churn;
        let lambda = plan.expected_views * day_shares[day as usize] * churn.flash_multiplier(day);
        if lambda <= 0.0 {
            return;
        }
        let n = Poisson::new(lambda).expect("lambda > 0").sample(rng) as u64;
        if !churn.fragments() {
            for _ in 0..n {
                let hour = samplers.hour_sampler.sample_fast(rng) as u32;
                out.push(self.make_session(item, day, hour, plan.tier, samplers, population, rng));
            }
            return;
        }
        // Churn: fragment each session into availability intervals, drawing
        // from the same per-item stream right after the session itself — the
        // draw count is schedule-independent, so the monolithic and
        // segmented paths stay byte-identical. Fragments that would start
        // past the horizon are dropped *after* the draws, identically on
        // both paths.
        let horizon = self.config.horizon_seconds();
        for _ in 0..n {
            let hour = samplers.hour_sampler.sample_fast(rng) as u32;
            let session = self.make_session(item, day, hour, plan.tier, samplers, population, rng);
            for (offset, len) in churn.availability_intervals(session.duration_secs, rng) {
                let start = session.start + u64::from(offset);
                if start.as_secs() >= horizon {
                    break;
                }
                out.push(SessionRecord {
                    start,
                    duration_secs: len,
                    ..session
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_session<R: Rng + ?Sized>(
        &self,
        item: &ContentItem,
        day: u32,
        hour: u32,
        tier: usize,
        samplers: &Samplers,
        population: &Population,
        rng: &mut R,
    ) -> SessionRecord {
        let start = SimTime::from_day_hour(day, hour) + rng.gen_range(0..SECS_PER_HOUR);
        let viewer = UserId(samplers.viewer_tables[tier].sample_fast(rng) as u32);
        let profile = population
            .get(viewer)
            .expect("sampler indexes the population");
        let device = DeviceClass::MIX[samplers.device_sampler.sample_fast(rng)].0;
        let fraction = samplers.watch_table.sample(rng).clamp(0.02, 1.0);
        let item_duration = item.duration_secs;
        let duration = ((f64::from(item_duration) * fraction) as u32).clamp(60, item_duration);
        SessionRecord {
            user: viewer,
            content: item.id,
            start,
            duration_secs: duration,
            device,
            isp: profile.isp,
            location: profile.location,
        }
    }
}

/// One item's RNG-free synthesis plan: what [`TraceGenerator`] knows about
/// the item before any arrival is drawn.
struct ItemPlan {
    /// The item's expected total views over the horizon.
    expected_views: f64,
    /// Popularity tier (head / mid / tail) for viewer-taste weighting.
    tier: usize,
    /// Per-day arrival shares; `None` when the item generates no sessions.
    day_shares: Option<Vec<f64>>,
}

/// One item's persistent generation state in the segmented emit mode: the
/// item's arrival RNG stream plus the churn fragments it has synthesized
/// that start on a *later* day than the day that synthesized them.
struct ItemStream {
    /// The item's persistent arrival stream — the invariant that makes
    /// per-day emission draw-identical to the monolithic day loop.
    rng: rand::rngs::StdRng,
    /// Fragments deferred to their start day, in generation order. Each
    /// emitted day must hold exactly the records starting in it (the
    /// stream's batches are watermarked at the day's end); churn rejoin
    /// gaps can push a fragment past midnight, so it waits here.
    pending: Vec<SessionRecord>,
}

/// The segmented emit mode of [`TraceGenerator::segments`]: a resumable
/// generator that yields one day of the trace at a time as a columnar
/// [`SessionStore`] segment.
///
/// Per-item RNG streams persist across days, so the emitted segments
/// concatenate to exactly the monolithic trace; only one day's rows and
/// columns are ever resident. Feed the stream to
/// `Simulator::simulate(&mut stream)` (in `consume-local-sim`) for the
/// bounded-memory generate-and-simulate pipeline, or collect the segments
/// with [`SegmentStream::next_segment`] when every day must stay at hand.
pub struct SegmentStream<'g> {
    generator: &'g TraceGenerator,
    catalogue: Catalogue,
    population: Population,
    samplers: Samplers,
    plans: Vec<ItemPlan>,
    /// Per-item persistent state (RNG stream + deferred churn fragments).
    streams: Vec<ItemStream>,
    /// Unit-width chunk offsets over `streams` for the disjoint-slice
    /// fan-out.
    rng_offsets: Vec<usize>,
    next_day: u32,
}

impl fmt::Debug for SegmentStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentStream")
            .field("next_day", &self.next_day)
            .field("days", &self.generator.config.days)
            .field("items", &self.plans.len())
            .finish_non_exhaustive()
    }
}

impl SegmentStream<'_> {
    /// Synthesises, merges and columnarises the next day's sessions;
    /// `None` once every horizon day has been emitted.
    ///
    /// Per-item synthesis fans across the generator's worker count through
    /// [`parallel_map_slices`] (each worker owns the items it steals — and
    /// their RNGs — through a disjoint `&mut` chunk), and the day's batches
    /// merge through the same hour-bucketed parallel
    /// [`merge_session_batches`] the monolithic path uses. The emitted
    /// segment is byte-identical for any worker count.
    pub fn next_segment(&mut self) -> Option<SessionStore> {
        let config = &self.generator.config;
        if self.next_day >= config.days {
            return None;
        }
        let day = self.next_day;
        self.next_day += 1;

        let generator = self.generator;
        let items = self.catalogue.items();
        let plans = &self.plans;
        let samplers = &self.samplers;
        let population = &self.population;
        let per_item: Vec<Vec<SessionRecord>> = parallel_map_slices(
            &mut self.streams,
            &self.rng_offsets,
            generator.workers,
            |i, slot| {
                let state = &mut slot[0];
                let mut fresh = Vec::new();
                generator.synthesise_item_day(
                    &items[i],
                    &plans[i],
                    day,
                    samplers,
                    population,
                    &mut state.rng,
                    &mut fresh,
                );
                // Emit this day's records in the monolithic path's order:
                // fragments deferred from earlier synthesis days first (they
                // were generated first), then today's synthesis. Fresh
                // fragments that start past midnight wait in `pending`.
                let mut out = Vec::new();
                state.pending.retain(|s| {
                    if s.start.day() == day {
                        out.push(*s);
                        false
                    } else {
                        true
                    }
                });
                for s in fresh {
                    if s.start.day() == day {
                        out.push(s);
                    } else {
                        state.pending.push(s);
                    }
                }
                out
            },
        );
        let sessions = merge_session_batches(&per_item, generator.workers);
        Some(SessionStore::from_sorted(
            &sessions,
            config.horizon_seconds(),
            self.population.len(),
        ))
    }

    /// The day index the next [`SegmentStream::next_segment`] call emits
    /// (equals the number of segments emitted so far).
    pub fn next_day(&self) -> u32 {
        self.next_day
    }

    /// The generating configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.generator.config
    }

    /// The content catalogue of this generation run.
    pub fn catalogue(&self) -> &Catalogue {
        &self.catalogue
    }

    /// The user population of this generation run.
    pub fn population(&self) -> &Population {
        &self.population
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig::london_sep2013().scaled(0.001).unwrap()
    }

    fn small_trace() -> Trace {
        TraceGenerator::new(small_config(), 1234)
            .generate()
            .unwrap()
    }

    #[test]
    fn scaling_preserves_views_per_item() {
        let full = TraceConfig::london_sep2013();
        let small = full.clone().scaled(0.01).unwrap();
        let full_per_item = full.sessions_target as f64 / f64::from(full.catalogue_size);
        let small_per_item = small.sessions_target as f64 / f64::from(small.catalogue_size);
        assert!((full_per_item / small_per_item - 1.0).abs() < 0.01);
    }

    #[test]
    fn scale_validation() {
        let cfg = TraceConfig::london_sep2013();
        assert!(cfg.clone().scaled(0.0).is_err());
        assert!(cfg.clone().scaled(-0.5).is_err());
        assert!(cfg.clone().scaled(1.5).is_err());
        assert!(cfg.clone().scaled(f64::NAN).is_err());
        assert!(cfg.scaled(1.0).is_ok());
    }

    #[test]
    fn config_validation_catches_each_field() {
        let base = small_config();
        let mut c = base.clone();
        c.days = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.users = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.sessions_target = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.catalogue_size = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.popularity = Popularity::Zipf { exponent: -1.0 };
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.mean_watch_fraction = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.watch_sigma = f64::NAN;
        assert!(c.validate().is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn session_count_near_target() {
        let trace = small_trace();
        let target = trace.config().sessions_target as f64;
        let actual = trace.sessions().len() as f64;
        assert!(
            (actual / target - 1.0).abs() < 0.05,
            "sessions {actual} vs target {target}"
        );
    }

    #[test]
    fn sessions_sorted_and_within_window() {
        let trace = small_trace();
        let horizon = trace.horizon_seconds();
        assert!(trace
            .sessions()
            .windows(2)
            .all(|w| w[0].start <= w[1].start));
        for s in trace.sessions() {
            assert!(s.start.as_secs() < horizon);
            assert!(s.duration_secs >= 60);
            let item = trace.catalogue().get(s.content).unwrap();
            assert!(s.duration_secs <= item.duration_secs);
        }
    }

    #[test]
    fn sessions_reference_population_consistently() {
        let trace = small_trace();
        for s in trace.sessions().iter().take(5_000) {
            let u = trace.population().get(s.user).unwrap();
            assert_eq!(s.isp, u.isp);
            assert_eq!(s.location, u.location);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceGenerator::new(small_config(), 77).generate().unwrap();
        let b = TraceGenerator::new(small_config(), 77).generate().unwrap();
        assert_eq!(a.sessions(), b.sessions());
        let c = TraceGenerator::new(small_config(), 78).generate().unwrap();
        assert_ne!(a.sessions(), c.sessions());
    }

    #[test]
    fn popular_items_get_more_views() {
        let trace = small_trace();
        let n = trace.catalogue().len() as u32;
        let mut views = vec![0u32; n as usize];
        for s in trace.sessions() {
            views[s.content.0 as usize] += 1;
        }
        // Head item dominates the tail: with Zipf s = 0.55 over the scaled
        // 24-item catalogue the head/tail view ratio is ≈ 24^0.55 ≈ 5.7
        // in expectation (taste affinities flatten it somewhat).
        let head = views[0];
        let tail: f64 = views[(n as usize * 9 / 10)..]
            .iter()
            .map(|&v| f64::from(v))
            .sum::<f64>()
            / (n as f64 / 10.0);
        assert!(
            f64::from(head) > 3.0 * tail,
            "head {head} vs mean tail {tail}"
        );
    }

    #[test]
    fn evening_peak_visible() {
        let trace = small_trace();
        let mut by_hour = [0u32; 24];
        for s in trace.sessions() {
            by_hour[s.start.hour_of_day() as usize] += 1;
        }
        let peak: u32 = (19..23).map(|h| by_hour[h]).sum();
        let trough: u32 = (2..6).map(|h| by_hour[h]).sum();
        assert!(peak > 8 * trough, "prime time {peak} vs night {trough}");
    }

    #[test]
    fn mainstream_users_watch_more_head_content() {
        let trace = small_trace();
        let head_cut = trace.catalogue().len() as u32 / 100; // top 1%
        let mut head_m = Vec::new();
        let mut tail_m = Vec::new();
        for s in trace.sessions() {
            let m = trace.population().get(s.user).unwrap().mainstreamness;
            if s.content.0 < head_cut.max(1) {
                head_m.push(m);
            } else if s.content.0 > trace.catalogue().len() as u32 / 10 {
                tail_m.push(m);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&head_m) > mean(&tail_m) + 0.05,
            "head viewers {} vs tail viewers {}",
            mean(&head_m),
            mean(&tail_m)
        );
    }

    #[test]
    fn from_parts_sorts() {
        let trace = small_trace();
        let mut shuffled = trace.sessions().to_vec();
        shuffled.reverse();
        let rebuilt = Trace::from_parts(
            trace.config().clone(),
            trace.catalogue().clone(),
            trace.population().clone(),
            shuffled,
        );
        assert!(rebuilt
            .sessions()
            .windows(2)
            .all(|w| w[0].start <= w[1].start));
        assert_eq!(rebuilt.sessions().len(), trace.sessions().len());
    }

    #[test]
    fn error_display() {
        let err = TraceConfig::london_sep2013().scaled(2.0).unwrap_err();
        assert!(err.to_string().contains("scale"));
    }

    #[test]
    fn merge_matches_global_sort_for_any_worker_count() {
        let trace = small_trace();
        // Group the trace's sessions into per-item batches — the same shape
        // the per-item synthesis emits (batch order must not matter beyond
        // tie-breaking, which the canonical key removes).
        let items = trace.catalogue().len();
        let mut per_item: Vec<Vec<SessionRecord>> = vec![Vec::new(); items];
        for s in trace.sessions() {
            per_item[s.content.0 as usize].push(*s);
        }
        let mut expected = trace.sessions().to_vec();
        sort_sessions(&mut expected);
        for workers in [1, 2, 8] {
            assert_eq!(
                merge_session_batches(&per_item, workers),
                expected,
                "{workers} merge workers"
            );
        }
    }

    /// A record straddling one compact-key bound.
    fn bound_record(start: u64, user: u32, content: u32, duration: u32) -> SessionRecord {
        use consume_local_topology::{ExchangeId, IspId, IspTopology};

        use crate::content::ContentId;
        SessionRecord {
            user: UserId(user),
            content: ContentId(content),
            start: SimTime(start),
            duration_secs: duration,
            device: DeviceClass::Desktop,
            isp: IspId(0),
            location: IspTopology::london_table3()
                .unwrap()
                .location_of(ExchangeId(0)),
        }
    }

    /// The retired 59-bit packing (22-bit start / 22-bit user / 15-bit
    /// content), kept as the oracle for the re-packed dynamic key: within
    /// the old bounds both packings must order records identically.
    fn legacy_sort_key_59(s: &SessionRecord) -> u64 {
        (s.start.as_secs() << 37) | (u64::from(s.user.0) << 15) | u64::from(s.content.0)
    }

    /// Old 59-bit limits: the boundary shapes every key test pins.
    const OLD_START: u64 = 1 << 22;
    const OLD_USERS: u32 = 1 << 22;
    const OLD_ITEMS: u32 = 1 << 15;

    #[test]
    fn wide_sort_fallback_identical_at_every_bound() {
        // One batch per boundary shape. Shapes that exceed a single old
        // 59-bit limit — or a single new guaranteed bound — now sort on the
        // compact fast path (the layout is sized from the measured maxima);
        // only the jointly pathological final cases force the wide record
        // sort. Either way the merged order must be byte-identical to the
        // canonical global sort, and to the forced-wide merge.
        let cases: Vec<(&str, bool, Vec<SessionRecord>)> = vec![
            (
                "within old 59-bit bounds",
                false,
                vec![
                    bound_record(OLD_START - 1, OLD_USERS - 1, OLD_ITEMS - 1, 90),
                    bound_record(3, 7, 1, 60),
                    bound_record(3, 7, 0, 61),
                    bound_record(3, 6, 2, 62),
                ],
            ),
            (
                "start exceeds old 2^22 s",
                false,
                vec![
                    bound_record(OLD_START + 17, 1, 1, 60),
                    bound_record(OLD_START + 17, 0, 2, 60),
                    bound_record(5, 2, 0, 60),
                ],
            ),
            (
                "user exceeds old 2^22",
                false,
                vec![
                    bound_record(10, OLD_USERS, 1, 60),
                    bound_record(10, OLD_USERS + 3, 0, 60),
                    bound_record(10, 4, 2, 60),
                ],
            ),
            (
                "content exceeds old 2^15",
                false,
                vec![
                    bound_record(44, 9, OLD_ITEMS, 60),
                    bound_record(44, 9, OLD_ITEMS + 2, 60),
                    bound_record(44, 2, 3, 60),
                ],
            ),
            (
                "every field at its new guaranteed bound",
                false,
                vec![
                    bound_record(
                        sort_key_bounds::START_SECS - 1,
                        sort_key_bounds::USERS - 1,
                        sort_key_bounds::ITEMS - 1,
                        90,
                    ),
                    bound_record(sort_key_bounds::START_SECS - 1, 0, 1, 60),
                    bound_record(2, sort_key_bounds::USERS - 1, 0, 60),
                    bound_record(2, 1, sort_key_bounds::ITEMS - 1, 60),
                ],
            ),
            (
                "metro shape: users past the guaranteed bound, slack start",
                false,
                vec![
                    bound_record(100, 18_000_000, 119_999, 60),
                    bound_record(100, 17_999_999, 3, 60),
                    bound_record(99, 18_000_000, 0, 60),
                ],
            ),
            (
                "pathological: joint widths exceed 64 bits",
                true,
                vec![
                    bound_record(1, u32::MAX, u32::MAX, 60),
                    bound_record(1, u32::MAX - 1, 5, 60),
                    bound_record(0, 3, u32::MAX, 60),
                ],
            ),
            (
                "pathological: giant horizon times giant population",
                true,
                vec![
                    bound_record((1 << 40) + 12, (1 << 30) + 5, 0, 60),
                    bound_record((1 << 40) + 12, 1 << 30, 1, 60),
                    bound_record(7, 2, 0, 60),
                ],
            ),
        ];
        for (name, wide, records) in cases {
            let maxima = records.iter().fold((0u64, 0u32, 0u32), |m, s| {
                (
                    m.0.max(s.start.as_secs()),
                    m.1.max(s.user.0),
                    m.2.max(s.content.0),
                )
            });
            assert_eq!(
                sort_key_fallback_required(maxima),
                wide,
                "{name}: unexpected fallback decision for {maxima:?}"
            );
            let mut expected = records.clone();
            sort_sessions(&mut expected);
            for workers in [1, 4] {
                // Split the records across two batches to exercise the
                // scatter too.
                let (a, b) = records.split_at(records.len() / 2);
                let batches = [a.to_vec(), b.to_vec()];
                let merged = merge_session_batches(&batches, workers);
                assert_eq!(merged, expected, "{name}, {workers} workers");
                assert_eq!(
                    merge_session_batches_wide(&batches, workers),
                    expected,
                    "{name}, {workers} workers, forced-wide path"
                );
            }
        }
    }

    #[test]
    fn repacked_key_matches_legacy_59_bit_oracle_within_old_bounds() {
        // Within the old 59-bit bounds the dynamic layout and the retired
        // packing must induce the same order (both are faithful encodings
        // of the same lexicographic tuple). Deterministic pseudo-random
        // coverage plus the exact old corners.
        let mut records = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            records.push(bound_record(
                x % OLD_START,
                (x >> 23) as u32 % OLD_USERS,
                (x >> 45) as u32 % OLD_ITEMS,
                60,
            ));
        }
        records.push(bound_record(
            OLD_START - 1,
            OLD_USERS - 1,
            OLD_ITEMS - 1,
            60,
        ));
        records.push(bound_record(0, 0, 0, 60));
        let maxima = (OLD_START - 1, OLD_USERS - 1, OLD_ITEMS - 1);
        let layout = SortKeyLayout::from_maxima(maxima).expect("old bounds fit the new key");
        let mut by_new = records.clone();
        by_new.sort_by_key(|s| layout.pack(s));
        let mut by_old = records.clone();
        by_old.sort_by_key(legacy_sort_key_59);
        assert_eq!(by_new, by_old, "re-packed order diverges from the oracle");
        for s in &records {
            assert_eq!(
                layout.unpack(layout.pack(s)),
                (s.start.as_secs(), s.user.0, s.content.0),
                "pack/unpack must round-trip"
            );
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Pack/unpack round-trips and packed keys order exactly like
            // the lexicographic (start, user, content) tuple, for layouts
            // sized anywhere within the guaranteed bounds — including the
            // exact maxima corner and the all-zero record.
            #[test]
            fn prop_pack_round_trips_and_orders_like_the_tuple(
                max_start in 0u64..sort_key_bounds::START_SECS,
                max_user in 0u32..sort_key_bounds::USERS,
                max_item in 0u32..sort_key_bounds::ITEMS,
                a in 0u64..u64::MAX,
                b in 0u64..u64::MAX,
            ) {
                let maxima = (max_start, max_user, max_item);
                prop_assert!(!sort_key_fallback_required(maxima));
                let layout =
                    SortKeyLayout::from_maxima(maxima).expect("guaranteed bounds fit");
                let rec = |x: u64| {
                    bound_record(
                        x % (max_start + 1),
                        ((x >> 19) % (u64::from(max_user) + 1)) as u32,
                        ((x >> 41) % (u64::from(max_item) + 1)) as u32,
                        60,
                    )
                };
                let corners = [
                    rec(a),
                    rec(b),
                    bound_record(max_start, max_user, max_item, 60),
                    bound_record(0, 0, 0, 60),
                ];
                for r in &corners {
                    prop_assert_eq!(
                        layout.unpack(layout.pack(r)),
                        (r.start.as_secs(), r.user.0, r.content.0)
                    );
                }
                let tuple = |r: &SessionRecord| (r.start.as_secs(), r.user.0, r.content.0);
                for ra in &corners {
                    for rb in &corners {
                        prop_assert_eq!(
                            layout.pack(ra).cmp(&layout.pack(rb)),
                            tuple(ra).cmp(&tuple(rb))
                        );
                    }
                }
            }

            // The fallback decision is exactly the joint-bit-width test, for
            // field widths spanning both sides of the 64-bit boundary —
            // single-bound overflows (the metro shapes) stay compact, and
            // any fitting layout round-trips its own maxima record.
            #[test]
            fn prop_fallback_decision_matches_joint_bit_widths(
                start_bits in 0u32..=40,
                user_bits in 0u32..=32,
                item_bits in 0u32..=32,
                raw in 0u64..u64::MAX,
            ) {
                // A value of exactly `bits` significant bits: top bit set,
                // the rest noise.
                let top = |bits: u32, noise: u64| -> u64 {
                    if bits == 0 {
                        0
                    } else {
                        (1u64 << (bits - 1)) | (noise & ((1u64 << (bits - 1)) - 1))
                    }
                };
                let maxima = (
                    top(start_bits, raw),
                    top(user_bits, raw >> 13) as u32,
                    top(item_bits, raw >> 29) as u32,
                );
                let wide = start_bits + user_bits + item_bits > 64;
                prop_assert_eq!(sort_key_fallback_required(maxima), wide);
                prop_assert_eq!(SortKeyLayout::from_maxima(maxima).is_none(), wide);
                if let Some(layout) = SortKeyLayout::from_maxima(maxima) {
                    let r = bound_record(maxima.0, maxima.1, maxima.2, 60);
                    prop_assert_eq!(layout.unpack(layout.pack(&r)), maxima);
                }
            }
        }
    }

    #[test]
    fn segmented_emit_matches_monolithic_generation() {
        let generator = TraceGenerator::new(small_config(), 1234);
        let trace = generator.generate().unwrap();
        let mut stream = generator.segments().unwrap();
        assert_eq!(stream.config(), trace.config());
        assert_eq!(stream.catalogue(), trace.catalogue());
        assert_eq!(stream.population(), trace.population());
        let mut emitted = Vec::new();
        let mut days = 0u32;
        while let Some(segment) = stream.next_segment() {
            assert_eq!(stream.next_day(), days + 1);
            emitted.extend(segment.to_records());
            days += 1;
        }
        assert!(
            stream.next_segment().is_none(),
            "stream must stay exhausted"
        );
        assert_eq!(days, trace.config().days);
        assert_eq!(emitted.as_slice(), trace.sessions());

        // The collected segments agree, store for store, for any worker
        // count.
        let collect = |generator: &TraceGenerator| {
            let mut stream = generator.segments().unwrap();
            std::iter::from_fn(|| stream.next_segment()).collect::<Vec<_>>()
        };
        let collected = collect(&generator);
        for workers in [2usize, 8] {
            let parallel = collect(&TraceGenerator::new(small_config(), 1234).workers(workers));
            assert_eq!(parallel, collected, "{workers} workers");
        }
    }

    #[test]
    fn scale_presets_are_ordered_and_valid() {
        let mut last = 0.0;
        for preset in ScalePreset::ALL {
            let s = preset.scale();
            assert!(s > last && s <= 1.0, "{preset}: {s}");
            last = s;
            let cfg = preset.apply(TraceConfig::london_sep2013());
            assert!(cfg.validate().is_ok());
            assert!(!preset.name().is_empty());
            assert_eq!(preset.to_string(), preset.name());
        }
        assert_eq!(
            ScalePreset::Full.apply(TraceConfig::london_sep2013()).users,
            3_600_000
        );
        // The benchmark reference scenario exceeds the 10 K-user bar.
        assert!(
            ScalePreset::Medium
                .apply(TraceConfig::london_sep2013())
                .users
                >= 10_000
        );
    }
}
