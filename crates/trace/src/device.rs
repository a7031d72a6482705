//! Device classes and streaming bitrates.
//!
//! The paper splits swarms by bitrate ("a user watching on a modern
//! internet-connected HD TV … may find it difficult to stream from a peer who
//! is watching at a lower bitrate on her mobile phone") and reports 1.5 Mb/s
//! as the most common iPlayer bitrate. The default mix below makes the
//! 1.5 Mb/s class the plurality.

use std::fmt;

use consume_local_stats::dist::Categorical;

/// The device a session is watched on; fixes its streaming bitrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// Phones on mobile/Wi-Fi: 800 kb/s.
    Mobile,
    /// Tablets: 1.5 Mb/s.
    Tablet,
    /// Desktop / laptop browsers: 1.5 Mb/s.
    Desktop,
    /// HD connected TVs: 2.8 Mb/s.
    HdTv,
    /// Full-HD large-screen TVs: 5.0 Mb/s.
    FullHdTv,
}

impl DeviceClass {
    /// All device classes with their default session shares.
    ///
    /// Calibrated for the paper's 2013/14 setting where 1.5 Mb/s was "the
    /// most common bitrate in BBC iPlayer": tablet + desktop give the
    /// 1.5 Mb/s class a 55 % majority; connected TVs were a minority.
    pub const MIX: [(DeviceClass, f64); 5] = [
        (DeviceClass::Mobile, 0.12),
        (DeviceClass::Tablet, 0.20),
        (DeviceClass::Desktop, 0.35),
        (DeviceClass::HdTv, 0.25),
        (DeviceClass::FullHdTv, 0.08),
    ];

    /// The streaming bitrate in bits per second.
    pub fn bitrate_bps(self) -> u32 {
        match self {
            DeviceClass::Mobile => 800_000,
            DeviceClass::Tablet | DeviceClass::Desktop => 1_500_000,
            DeviceClass::HdTv => 2_800_000,
            DeviceClass::FullHdTv => 5_000_000,
        }
    }

    /// The bitrate class used for swarm splitting: devices with equal
    /// bitrates share swarms (tablet and desktop both stream 1.5 Mb/s).
    pub fn bitrate_class(self) -> BitrateClass {
        BitrateClass(self.bitrate_bps())
    }

    /// The sampler over the default mix (index into [`DeviceClass::MIX`]).
    pub fn mix_sampler() -> Categorical {
        Categorical::new(&Self::MIX.map(|(_, w)| w)).expect("static mix is valid")
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Mobile => "mobile",
            DeviceClass::Tablet => "tablet",
            DeviceClass::Desktop => "desktop",
            DeviceClass::HdTv => "hd-tv",
            DeviceClass::FullHdTv => "fullhd-tv",
        };
        f.write_str(s)
    }
}

/// A bitrate class for swarm splitting, keyed by bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitrateClass(pub u32);

impl BitrateClass {
    /// The bitrate in bits per second.
    pub fn bps(self) -> u32 {
        self.0
    }

    /// The bitrate in megabits per second.
    pub fn mbps(self) -> f64 {
        f64::from(self.0) / 1e6
    }

    /// All distinct bitrate classes in the default device mix, ascending.
    pub fn all_in_mix() -> Vec<BitrateClass> {
        let mut v: Vec<BitrateClass> = DeviceClass::MIX
            .iter()
            .map(|(d, _)| d.bitrate_class())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

impl fmt::Display for BitrateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}Mbps", self.mbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_stats::dist::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mix_sums_to_one() {
        let total: f64 = DeviceClass::MIX.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn most_common_bitrate_is_1500k() {
        // The paper: "The most common bitrate in BBC iPlayer is 1.5Mbps".
        let mut by_class: std::collections::BTreeMap<BitrateClass, f64> = Default::default();
        for (d, w) in DeviceClass::MIX {
            *by_class.entry(d.bitrate_class()).or_default() += w;
        }
        let (best, _) = by_class
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(best.bps(), 1_500_000);
    }

    #[test]
    fn bitrate_classes_deduplicate() {
        let classes = BitrateClass::all_in_mix();
        assert_eq!(classes.len(), 4); // 0.8, 1.5, 2.8, 5.0
        assert!(classes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            DeviceClass::Tablet.bitrate_class(),
            DeviceClass::Desktop.bitrate_class()
        );
    }

    #[test]
    fn sampler_matches_mix() {
        let s = DeviceClass::mix_sampler();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 5];
        for _ in 0..100_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        for (i, (_, w)) in DeviceClass::MIX.iter().enumerate() {
            let emp = f64::from(counts[i]) / 100_000.0;
            assert!((emp - w).abs() < 0.01, "device {i}: {emp} vs {w}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(DeviceClass::HdTv.to_string(), "hd-tv");
        assert_eq!(BitrateClass(1_500_000).to_string(), "1.5Mbps");
    }
}
