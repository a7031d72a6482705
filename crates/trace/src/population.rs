//! The user population: households (IP addresses) and users.
//!
//! Table I of the paper counts ~2.2 users per IP address (3.3 M users behind
//! 1.5 M IPs), so the population is generated as *households*: each household
//! gets one ISP subscription and one attachment point in that ISP's tree, and
//! hosts 1–5 users. Per-user *activity* is Pareto-skewed ("per-user
//! consumption patterns are highly skewed towards a small share of very
//! active users") and each user carries a *mainstreamness* taste weight that
//! steers them towards the popular head or the niche tail of the catalogue —
//! the heterogeneity behind the carbon-negative users of Fig. 6.

use std::fmt;

use rand::Rng;

use consume_local_stats::dist::{Categorical, Distribution, Pareto};
use consume_local_topology::{IspId, IspRegistry, UserLocation};

/// Identifier of a user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a household (≙ one IP address in Table I terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HouseholdId(pub u32);

impl fmt::Display for HouseholdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Household size distribution: mean ≈ 2.2 users per household, matching the
/// users-per-IP ratio of Table I.
const HOUSEHOLD_SIZES: [(u32, f64); 5] = [(1, 0.30), (2, 0.35), (3, 0.20), (4, 0.10), (5, 0.05)];

/// One user: who they are, where they connect from, how active they are and
/// what they like.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Identifier.
    pub id: UserId,
    /// The household (IP address) the user belongs to.
    pub household: HouseholdId,
    /// The household's ISP.
    pub isp: IspId,
    /// The household's attachment point in the ISP tree.
    pub location: UserLocation,
    /// Relative session volume (Pareto-skewed, mean ≈ 1 over the population).
    pub activity: f64,
    /// Taste position in `[0, 1]`: 1 = watches only mainstream hits,
    /// 0 = watches only niche content.
    pub mainstreamness: f64,
}

/// The generated population.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    users: Vec<UserProfile>,
    households: u32,
}

impl Population {
    /// Generates a population of approximately `target_users` users grouped
    /// into households, subscribed to ISPs per the registry's market shares.
    ///
    /// Returns `None` when `target_users` is zero.
    pub fn generate<R: Rng + ?Sized>(
        target_users: u32,
        registry: &IspRegistry,
        rng: &mut R,
    ) -> Option<Self> {
        if target_users == 0 {
            return None;
        }
        let size_dist = Categorical::new(&HOUSEHOLD_SIZES.map(|(_, w)| w))
            .expect("static household sizes are valid");
        let isp_dist =
            Categorical::new(&registry.market_shares()).expect("registry shares are positive");
        // Activity: Pareto with alpha 1.8 (finite mean 2.25·x_min), rescaled
        // to mean 1 so `activity` multiplies an average session budget.
        let activity_dist = Pareto::new(1.0, 1.8).expect("static pareto params");
        let activity_mean = activity_dist.mean().expect("alpha > 1");

        let mut users = Vec::with_capacity(target_users as usize + 4);
        let mut households = 0u32;
        while users.len() < target_users as usize {
            let household = HouseholdId(households);
            households += 1;
            let isp_idx = isp_dist.sample(rng);
            let profile = &registry.profiles()[isp_idx];
            let location = profile.topology.random_location(rng);
            let size = HOUSEHOLD_SIZES[size_dist.sample(rng)].0;
            for _ in 0..size {
                if users.len() >= target_users as usize {
                    break;
                }
                let id = UserId(users.len() as u32);
                users.push(UserProfile {
                    id,
                    household,
                    isp: profile.id,
                    location,
                    activity: activity_dist.sample(rng) / activity_mean,
                    // Beta(2,2)-ish hump via average of two uniforms: most
                    // users are mixed, tails are strongly mainstream/niche.
                    mainstreamness: (rng.gen::<f64>() + rng.gen::<f64>()) / 2.0,
                });
            }
        }
        Some(Self { users, households })
    }

    /// The users, ordered by id.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the population is empty (never after generation).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Number of households (distinct IP addresses).
    pub fn household_count(&self) -> u32 {
        self.households
    }

    /// Looks up a user.
    pub fn get(&self, id: UserId) -> Option<&UserProfile> {
        self.users.get(id.0 as usize)
    }

    /// Mean users per household — Table I's users-per-IP ratio.
    pub fn users_per_household(&self) -> f64 {
        self.users.len() as f64 / f64::from(self.households.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: u32) -> Population {
        let mut rng = StdRng::seed_from_u64(99);
        Population::generate(n, &IspRegistry::london_top5(), &mut rng).unwrap()
    }

    #[test]
    fn rejects_zero_users() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Population::generate(0, &IspRegistry::london_top5(), &mut rng).is_none());
    }

    #[test]
    fn user_ids_are_dense() {
        let p = pop(5_000);
        assert_eq!(p.len(), 5_000);
        for (i, u) in p.users().iter().enumerate() {
            assert_eq!(u.id.0 as usize, i);
        }
        assert!(p.get(UserId(4_999)).is_some());
        assert!(p.get(UserId(5_000)).is_none());
    }

    #[test]
    fn users_per_household_matches_table1_ratio() {
        let p = pop(50_000);
        let ratio = p.users_per_household();
        // Table I: 3.3M users / 1.5M IPs = 2.2.
        assert!((2.0..2.45).contains(&ratio), "users/IP = {ratio}");
    }

    #[test]
    fn household_members_share_isp_and_location() {
        let p = pop(10_000);
        use std::collections::HashMap;
        let mut seen: HashMap<HouseholdId, (IspId, UserLocation)> = HashMap::new();
        for u in p.users() {
            let entry = seen.entry(u.household).or_insert((u.isp, u.location));
            assert_eq!(entry.0, u.isp, "household members share an ISP");
            assert_eq!(entry.1, u.location, "household members share a location");
        }
    }

    #[test]
    fn isp_shares_respected() {
        let p = pop(100_000);
        let registry = IspRegistry::london_top5();
        let mut counts = vec![0u32; registry.len()];
        for u in p.users() {
            counts[u.isp.0 as usize] += 1;
        }
        for (i, share) in registry.market_shares().iter().enumerate() {
            let emp = f64::from(counts[i]) / p.len() as f64;
            assert!((emp - share).abs() < 0.02, "ISP {i}: {emp} vs {share}");
        }
    }

    #[test]
    fn activity_is_skewed_with_unit_mean() {
        let p = pop(100_000);
        let mean = p.users().iter().map(|u| u.activity).sum::<f64>() / p.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean activity {mean}");
        // Top 10% of users account for well over 10% of activity.
        let mut acts: Vec<f64> = p.users().iter().map(|u| u.activity).collect();
        acts.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top_decile: f64 = acts[..p.len() / 10].iter().sum();
        let total: f64 = acts.iter().sum();
        assert!(
            top_decile / total > 0.3,
            "top-decile share {}",
            top_decile / total
        );
    }

    #[test]
    fn mainstreamness_covers_unit_interval() {
        let p = pop(20_000);
        let ms: Vec<f64> = p.users().iter().map(|u| u.mainstreamness).collect();
        assert!(ms.iter().all(|&m| (0.0..=1.0).contains(&m)));
        let lo = ms.iter().filter(|&&m| m < 0.25).count();
        let hi = ms.iter().filter(|&&m| m > 0.75).count();
        // Both tails populated but the middle dominates (hump shape).
        assert!(lo > 500 && hi > 500);
        assert!(lo < p.len() / 4 && hi < p.len() / 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let reg = IspRegistry::london_top5();
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = Population::generate(3_000, &reg, &mut r1).unwrap();
        let b = Population::generate(3_000, &reg, &mut r2).unwrap();
        assert_eq!(a, b);
    }
}
