//! The content catalogue: items, genres, popularity and broadcast dates.

use std::fmt;

use rand::Rng;

use consume_local_stats::dist::{Categorical, Distribution};

use crate::popularity::Popularity;

/// Identifier of a content item; doubles as its 0-based popularity rank
/// (id 0 is the most popular item).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentId(pub u32);

impl fmt::Display for ContentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item{}", self.0)
    }
}

/// Coarse programme genre; determines the episode duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Genre {
    /// Scripted drama (~45 min episodes).
    Drama,
    /// Comedy / light entertainment (~30 min).
    Entertainment,
    /// News and current affairs (~60 min).
    News,
    /// Documentaries (~50 min).
    Documentary,
    /// Children's programming (~15 min).
    Children,
}

impl Genre {
    /// All genres with their catalogue shares (children's content is a large
    /// share of catch-up catalogues by item count).
    pub const MIX: [(Genre, f64); 5] = [
        (Genre::Drama, 0.25),
        (Genre::Entertainment, 0.30),
        (Genre::News, 0.10),
        (Genre::Documentary, 0.15),
        (Genre::Children, 0.20),
    ];

    /// Nominal episode duration in seconds.
    pub fn episode_seconds(self) -> u32 {
        match self {
            Genre::Drama => 45 * 60,
            Genre::Entertainment => 30 * 60,
            Genre::News => 60 * 60,
            Genre::Documentary => 50 * 60,
            Genre::Children => 15 * 60,
        }
    }
}

impl fmt::Display for Genre {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Genre::Drama => "drama",
            Genre::Entertainment => "entertainment",
            Genre::News => "news",
            Genre::Documentary => "documentary",
            Genre::Children => "children",
        };
        f.write_str(s)
    }
}

/// One programme episode available for on-demand streaming.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentItem {
    /// Identifier (= popularity rank, 0-based).
    pub id: ContentId,
    /// Genre, which fixes the episode duration.
    pub genre: Genre,
    /// Full episode duration in seconds.
    pub duration_secs: u32,
    /// Day the episode (re-)aired, relative to the trace epoch. Negative
    /// values are back-catalogue items broadcast before the traced month.
    pub broadcast_day: i32,
}

/// The on-demand catalogue: items with an explicit popularity distribution
/// (normalised per-item session shares).
///
/// For the default [`Popularity::catchup_tv`] broken power law at full
/// London scale this reproduces the paper's exemplars: rank 0 ≈ 147 K
/// monthly views ("Bad Education" ≳ 100 K), rank ≈ 430 ≈ 10 K ("Question
/// Time"), rank ≈ 3 500 ≈ 1 K ("What's to Eat").
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    items: Vec<ContentItem>,
    weights: Vec<f64>,
    popularity: Popularity,
}

impl Catalogue {
    /// Generates a catalogue of `size` items under `popularity`, drawing
    /// genres and broadcast days from `rng`.
    ///
    /// About 40 % of items are fresh broadcasts within the traced `days`
    /// (catch-up TV), the rest back-catalogue; popular items are biased
    /// towards fresh broadcasts, which concentrates their sessions and
    /// produces the prime-time swarm peaks of Fig. 2.
    ///
    /// Returns `None` for a zero `size` or invalid popularity parameters.
    pub fn generate<R: Rng + ?Sized>(
        size: u32,
        popularity: Popularity,
        days: u32,
        rng: &mut R,
    ) -> Option<Self> {
        if size == 0 || popularity.validate().is_err() {
            return None;
        }
        let weights = popularity.weights(size);
        let genre_dist =
            Categorical::new(&Genre::MIX.map(|(_, w)| w)).expect("static genre mix is valid");
        let mut items = Vec::with_capacity(size as usize);
        for k in 0..size {
            let genre = Genre::MIX[genre_dist.sample(rng)].0;
            // Fresh-broadcast probability decays with rank: the head of the
            // catalogue is dominated by this month's shows.
            let rank_frac = f64::from(k) / f64::from(size);
            let fresh_prob = 0.8 * (1.0 - rank_frac).powi(2) + 0.1;
            let broadcast_day = if rng.gen::<f64>() < fresh_prob {
                rng.gen_range(0..days.max(1)) as i32
            } else {
                -rng.gen_range(1..365)
            };
            items.push(ContentItem {
                id: ContentId(k),
                genre,
                duration_secs: genre.episode_seconds(),
                broadcast_day,
            });
        }
        Some(Self {
            items,
            weights,
            popularity,
        })
    }

    /// The items, ordered by popularity rank.
    pub fn items(&self) -> &[ContentItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the catalogue is empty (never after generation).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Looks up an item.
    pub fn get(&self, id: ContentId) -> Option<&ContentItem> {
        self.items.get(id.0 as usize)
    }

    /// The popularity model this catalogue was generated with.
    pub fn popularity(&self) -> &Popularity {
        &self.popularity
    }

    /// The share of total sessions going to item `id` (0 outside the
    /// catalogue).
    pub fn popularity_share(&self, id: ContentId) -> f64 {
        self.weights.get(id.0 as usize).copied().unwrap_or(0.0)
    }

    /// All normalised popularity shares, indexed by rank.
    pub fn popularity_shares(&self) -> &[f64] {
        &self.weights
    }

    /// The item closest to a target monthly view count, given the total
    /// session volume — how the figure harness picks the paper's "highly
    /// popular" (100 K), "medium" (10 K) and "unpopular" (1 K) exemplars.
    pub fn item_with_views(&self, target_views: f64, total_sessions: f64) -> ContentId {
        let mut best = (ContentId(0), f64::INFINITY);
        for (k, w) in self.weights.iter().enumerate() {
            let views = w * total_sessions;
            let err = (views.max(1e-9).ln() - target_views.max(1.0).ln()).abs();
            if err < best.1 {
                best = (ContentId(k as u32), err);
            }
        }
        best.0
    }

    /// Expected monthly views of an item given the total session volume.
    pub fn expected_views(&self, id: ContentId, total_sessions: f64) -> f64 {
        self.popularity_share(id) * total_sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalogue(size: u32) -> Catalogue {
        let mut rng = StdRng::seed_from_u64(7);
        Catalogue::generate(size, Popularity::catchup_tv(), 30, &mut rng).unwrap()
    }

    #[test]
    fn generation_validates() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Catalogue::generate(0, Popularity::catchup_tv(), 30, &mut rng).is_none());
        assert!(
            Catalogue::generate(10, Popularity::Zipf { exponent: 0.0 }, 30, &mut rng).is_none()
        );
    }

    #[test]
    fn ids_are_ranks() {
        let c = catalogue(100);
        for (i, item) in c.items().iter().enumerate() {
            assert_eq!(item.id.0 as usize, i);
        }
        assert!(c.get(ContentId(99)).is_some());
        assert!(c.get(ContentId(100)).is_none());
    }

    #[test]
    fn popularity_shares_sum_to_one_and_decay() {
        let c = catalogue(500);
        let total: f64 = (0..500).map(|k| c.popularity_share(ContentId(k))).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 0..499 {
            assert!(
                c.popularity_share(ContentId(k)) >= c.popularity_share(ContentId(k + 1)) - 1e-15
            );
        }
        assert_eq!(c.popularity_share(ContentId(1000)), 0.0);
    }

    #[test]
    fn paper_exemplar_view_counts() {
        // At full London scale: 24 000 items, 23.5 M sessions.
        let c = catalogue(24_000);
        let total = 23.5e6;
        let head = c.expected_views(ContentId(0), total);
        assert!(
            (100_000.0..250_000.0).contains(&head),
            "top item should get ≳100K views, got {head}"
        );
        let medium = c.item_with_views(10_000.0, total);
        let mv = c.expected_views(medium, total);
        assert!((8_000.0..12_500.0).contains(&mv), "medium {mv}");
        let unpop = c.item_with_views(1_000.0, total);
        let uv = c.expected_views(unpop, total);
        assert!((800.0..1_250.0).contains(&uv), "unpopular {uv}");
    }

    #[test]
    fn durations_follow_genres() {
        let c = catalogue(200);
        for item in c.items() {
            assert_eq!(item.duration_secs, item.genre.episode_seconds());
            assert!(item.duration_secs >= 15 * 60);
            assert!(item.duration_secs <= 60 * 60);
        }
    }

    #[test]
    fn head_is_mostly_fresh_tail_mostly_catalogue() {
        let c = catalogue(2_000);
        let fresh = |range: std::ops::Range<usize>| -> f64 {
            let items = &c.items()[range];
            items.iter().filter(|i| i.broadcast_day >= 0).count() as f64 / items.len() as f64
        };
        assert!(fresh(0..200) > 0.6, "head fresh share {}", fresh(0..200));
        assert!(
            fresh(1800..2000) < 0.4,
            "tail fresh share {}",
            fresh(1800..2000)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Catalogue::generate(300, Popularity::catchup_tv(), 30, &mut r1).unwrap();
        let b = Catalogue::generate(300, Popularity::catchup_tv(), 30, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn genre_mix_sums_to_one() {
        let total: f64 = Genre::MIX.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_variant_still_supported() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Catalogue::generate(100, Popularity::Zipf { exponent: 1.0 }, 30, &mut rng).unwrap();
        // Classic Zipf: rank 0 twice the share of rank 1.
        let r0 = c.popularity_share(ContentId(0));
        let r1 = c.popularity_share(ContentId(1));
        assert!((r0 / r1 - 2.0).abs() < 1e-9);
        assert_eq!(c.popularity(), &Popularity::Zipf { exponent: 1.0 });
    }
}
