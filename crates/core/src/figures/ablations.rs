//! The ablations A1–A6 and the §VI future-work extensions.
//!
//! Each re-runs the shared experiment with one setting changed and reports
//! the run's offload and both models' savings: A1 the matcher, A2 the
//! swarm-splitting policy, A3 the window Δτ, A4 the upload model, A6 the
//! participation rate, and §VI predictive preloading and exchange-point
//! edge caches. A5 regenerates the month under other popularity laws
//! instead, and §VI's live event simulates one broadcast evening.

use std::fmt::Write as _;

use consume_local_energy::{EnergyParams, ModelKind};
use consume_local_sim::{EdgeCache, SimConfig, SimReport, Simulator, UploadModel};
use consume_local_swarm::{MatcherKind, SwarmPolicy};
use consume_local_trace::live::{live_event_trace, LiveEvent};
use consume_local_trace::{
    ContentId, Popularity, Population, SimTime, TraceConfig, TraceGenerator,
};
use rand::SeedableRng;

use super::{fig6, pct, Exhibit};
use crate::experiment::Experiment;

/// Offload and both models' savings: the columns every ablation reports.
struct Outcome {
    offload: f64,
    valancius: f64,
    baliga: f64,
}

impl Outcome {
    fn of(report: &SimReport) -> Self {
        Self {
            offload: report.total.offload_share(),
            valancius: report
                .total_savings(&EnergyParams::valancius())
                .unwrap_or(0.0),
            baliga: report.total_savings(&EnergyParams::baliga()).unwrap_or(0.0),
        }
    }

    /// `offload,valancius,baliga`, the CSV columns of most ablations.
    fn csv(&self) -> String {
        format!("{},{},{}", self.offload, self.valancius, self.baliga)
    }

    /// `offload … | savings V … B …`, as most summary lines end.
    fn summary(&self) -> String {
        format!(
            "offload {} | savings V {} B {}",
            pct(self.offload),
            pct(self.valancius),
            pct(self.baliga)
        )
    }
}

/// The one ablation loop: re-simulates `exp`'s trace once per setting,
/// with `set` applying the setting to the shared configuration.
fn vary<'a, T: Copy + 'a>(
    exp: &'a Experiment,
    settings: &'a [T],
    set: impl Fn(&mut SimConfig, T) + 'a,
) -> impl Iterator<Item = (T, SimReport, Outcome)> + 'a {
    settings.iter().map(move |&setting| {
        let mut cfg = exp.sim_config().clone();
        set(&mut cfg, setting);
        let report = exp.resimulate(cfg).expect("ablation settings are valid");
        let outcome = Outcome::of(&report);
        (setting, report, outcome)
    })
}

/// A1–A6 and the §VI extensions on the shared experiment.
pub(crate) fn exhibits(exp: &Experiment) -> Vec<Exhibit> {
    vec![
        matching(exp),
        policies(exp),
        window(exp),
        upload(exp),
        popularity(exp.scale()),
        participation(exp),
        extensions(exp),
    ]
}

/// A1: the paper's closest-first matcher against locality-oblivious random
/// matching — the same bytes move, at a different layer mix.
fn matching(exp: &Experiment) -> Exhibit {
    let mut ex = Exhibit::new("Ablation A1: hierarchical vs random peer matching");
    let mut csv = String::from("matcher,offload,exp_share,pop_share,core_share,valancius,baliga\n");
    let matchers = [
        ("hierarchical", MatcherKind::Hierarchical),
        ("random", MatcherKind::Random),
    ];
    for ((label, _), report, o) in vary(exp, &matchers, |c, (_, m)| c.matcher = m) {
        let peer = report.total.peer_bytes().max(1) as f64;
        let [x, p, c] = report.total.peer_bytes_by_layer.map(|b| b as f64 / peer);
        ex.line(format!(
            "{label:>13}: {} | peer bytes at ExP {} / PoP {} / Core {}",
            o.summary(),
            pct(x),
            pct(p),
            pct(c)
        ));
        let (v, b) = (o.valancius, o.baliga);
        let _ = writeln!(csv, "{label},{},{x},{p},{c},{v},{b}", o.offload);
    }
    ex.csv("ablation_matching.csv", csv);
    ex
}

/// A2: the paper's ISP-friendly, bitrate-split swarms against each
/// relaxation; every split costs offload, so the paper's savings are a
/// lower bound (§IV-B-1).
fn policies(exp: &Experiment) -> Exhibit {
    let mut ex = Exhibit::new("Ablation A2: swarm-splitting policies");
    let mut csv = String::from("policy,swarms,offload,valancius,baliga\n");
    let policies = [
        ("isp+bitrate (paper)", SwarmPolicy::paper_default()),
        ("bitrate only", SwarmPolicy::cross_isp()),
        ("isp only", SwarmPolicy::mixed_bitrate()),
        ("content only", SwarmPolicy::content_only()),
    ];
    for ((label, _), report, o) in vary(exp, &policies, |c, (_, p)| c.policy = p) {
        let swarms = report.swarms.len();
        ex.line(format!("{label:>20}: {swarms:>6} swarms | {}", o.summary()));
        let _ = writeln!(csv, "{label},{swarms},{}", o.csv());
    }
    ex.csv("ablation_policies.csv", csv);
    ex
}

/// A3: the window Δτ the paper fixes at 10 s; quantisation is a
/// second-order effect.
fn window(exp: &Experiment) -> Exhibit {
    let mut ex = Exhibit::new("Ablation A3: window size Δτ");
    let mut csv = String::from("window_secs,offload,valancius,baliga\n");
    for (secs, _, o) in vary(exp, &[2u64, 5, 10, 30, 60], |c, w| c.window_secs = w) {
        ex.line(format!("Δτ = {secs:>2} s: {}", o.summary()));
        let _ = writeln!(csv, "{secs},{}", o.csv());
    }
    ex.csv("ablation_window.csv", csv);
    ex
}

/// A4: the `q/β` sweep past 1.0, and the ≈ 4.3 Mb/s UK-average uplink the
/// paper cites as an absolute budget; savings saturate at `q = β`.
fn upload(exp: &Experiment) -> Exhibit {
    let mut ex = Exhibit::new("Ablation A4: upload capability");
    let mut csv = String::from("upload,offload,valancius,baliga\n");
    let uploads = [0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0]
        .map(UploadModel::Ratio)
        .into_iter()
        .chain([UploadModel::AbsoluteBps(4_300_000)])
        .collect::<Vec<_>>();
    for (upload, _, o) in vary(exp, &uploads, |c, u| c.upload = u) {
        let label = match upload {
            UploadModel::Ratio(ratio) => format!("ratio {ratio}"),
            UploadModel::AbsoluteBps(_) => "4.3Mbps".to_string(),
        };
        ex.line(format!("{label:>9}: {}", o.summary()));
        let _ = writeln!(csv, "{label},{}", o.csv());
    }
    ex.csv("ablation_upload.csv", csv);
    ex
}

/// A5: the same month at `scale` under flatter and heavier popularity laws;
/// aggregate savings follow the traffic in high-capacity head swarms (see
/// the scaling note on `TraceConfig::catalogue_size`).
fn popularity(scale: f64) -> Exhibit {
    let mut ex = Exhibit::new("Ablation A5: demand concentration");
    let mut csv = String::from("popularity,offload,valancius,baliga\n");
    let laws = [
        ("single Zipf s=0.55", Popularity::Zipf { exponent: 0.55 }),
        ("single Zipf s=0.80", Popularity::Zipf { exponent: 0.8 }),
        ("broken power law (default)", Popularity::catchup_tv()),
        (
            "heavier head",
            Popularity::BrokenZipf {
                head_exponent: 0.3,
                tail_exponent: 1.4,
                break_fraction: 0.03,
            },
        ),
    ];
    for (label, law) in laws {
        let mut config = TraceConfig::london_sep2013()
            .scaled(scale)
            .expect("preset scales are valid");
        config.popularity = law;
        let trace = TraceGenerator::new(config, 2013)
            .generate()
            .expect("the popularity laws are valid");
        let o = Outcome::of(&Simulator::new(SimConfig::default()).simulate(&trace));
        ex.line(format!("{label:>28}: {}", o.summary()));
        let _ = writeln!(csv, "{label},{}", o.csv());
    }
    ex.csv("ablation_popularity.csv", csv);
    ex
}

/// A6: partial upload participation — Akamai NetSession sees as little as
/// 30 % — and what it costs in savings and carbon-positive users.
fn participation(exp: &Experiment) -> Exhibit {
    let mut ex = Exhibit::new("Ablation A6: upload participation rate");
    let mut csv = String::from("participation,offload,valancius,baliga,positive_v,positive_b\n");
    for (rate, report, o) in vary(exp, &[0.3, 0.5, 0.7, 1.0], |c, r| {
        c.participation_rate = r;
    }) {
        let f6 = fig6(&report, 8);
        let pos_v = f6.positive_share(ModelKind::Valancius);
        let pos_b = f6.positive_share(ModelKind::Baliga);
        ex.line(format!(
            "participation {:>3.0}%: {} | carbon-positive V {} B {}",
            rate * 100.0,
            o.summary(),
            pct(pos_v),
            pct(pos_b)
        ));
        let _ = writeln!(csv, "{rate},{},{pos_v},{pos_b}", o.csv());
    }
    ex.csv("ablation_participation.csv", csv);
    ex
}

/// §VI's three future-work directions on the same engine: predictive
/// preloading, exchange-point edge caches (whose rows report the cache's
/// share of demand in the offload column) and one live broadcast evening of
/// 500 K viewers at full scale, scaled like the experiment.
fn extensions(exp: &Experiment) -> Exhibit {
    let mut ex = Exhibit::new("§VI extensions: preloading, edge caching, live streaming");
    let mut csv = String::from("extension,setting,offload,valancius,baliga\n");
    for (f, _, o) in vary(exp, &[0.0, 0.2, 0.4, 0.6], |c, f| c.preload_fraction = f) {
        ex.line(format!("  preload {:>3.0}%: {}", f * 100.0, o.summary()));
        let _ = writeln!(csv, "preload,{f},{}", o.csv());
    }
    for (top, report, o) in vary(exp, &[0u32, 10, 50, 200], |c, top| {
        c.edge_cache = (top > 0).then_some(EdgeCache { top_items: top });
    }) {
        let cache_share = report.total.cache_bytes as f64 / report.total.demand_bytes as f64;
        ex.line(format!(
            "  top-{top:<4} cached: cache share {} | savings V {} B {}",
            pct(cache_share),
            pct(o.valancius),
            pct(o.baliga)
        ));
        let (v, b) = (o.valancius, o.baliga);
        let _ = writeln!(csv, "cache,{top},{cache_share},{v},{b}");
    }

    let base = exp.trace().config();
    let event = LiveEvent {
        content: ContentId(0),
        start: SimTime::from_day_hour(5, 20),
        duration_secs: 2 * 3600,
        viewers: (500_000.0 * exp.scale()).round() as u32,
        join_jitter_secs: 420.0,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let population = Population::generate(base.users, &base.registry, &mut rng)
        .expect("a scaled London month has users");
    let trace = live_event_trace(base, population, &[event], 2013).expect("valid event");
    let o = Outcome::of(&Simulator::new(exp.sim_config().clone()).simulate(&trace));
    ex.line(format!(
        "  live event: {} (the Eq. 12 asymptotes are {} / {})",
        o.summary(),
        pct(0.646),
        pct(0.370)
    ));
    let _ = writeln!(csv, "live,500k,{}", o.csv());
    ex.csv("extension_futurework.csv", csv);
    ex
}
