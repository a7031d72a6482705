//! Sub-swarm partitioning policies.
//!
//! The paper's evaluation splits the viewers of a content item into
//! sub-swarms by ISP ("ISP-friendly P2P swarming … can provide a lower bound
//! on achievable savings") and by bitrate (an HD TV cannot stream from a
//! phone's low-bitrate copy). Either split can be disabled to reproduce the
//! ablation studies.

use consume_local_topology::IspId;
use consume_local_trace::device::BitrateClass;
use consume_local_trace::{ContentId, SessionRecord};

/// Which dimensions partition a content item's viewers into sub-swarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwarmPolicy {
    /// Peers are only matched within the same ISP (paper default: true).
    pub split_by_isp: bool,
    /// Peers are only matched within the same bitrate class (paper default:
    /// true).
    pub split_by_bitrate: bool,
}

impl Default for SwarmPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl SwarmPolicy {
    /// The paper's evaluation policy: ISP-friendly, bitrate-split swarms.
    pub fn paper_default() -> Self {
        Self {
            split_by_isp: true,
            split_by_bitrate: true,
        }
    }

    /// Cross-ISP matching allowed (ablation A1 upper bound).
    pub fn cross_isp() -> Self {
        Self {
            split_by_isp: false,
            split_by_bitrate: true,
        }
    }

    /// Mixed-bitrate swarms (ablation A2).
    pub fn mixed_bitrate() -> Self {
        Self {
            split_by_isp: true,
            split_by_bitrate: false,
        }
    }

    /// The least restrictive policy: one swarm per content item.
    pub fn content_only() -> Self {
        Self {
            split_by_isp: false,
            split_by_bitrate: false,
        }
    }

    /// The sub-swarm key for a session under this policy.
    pub fn key_for(&self, session: &SessionRecord) -> SwarmKey {
        self.key_parts(session.content, session.isp, session.bitrate_class())
    }

    /// The sub-swarm key from raw session fields — the columnar
    /// [`SessionStore`](consume_local_trace::SessionStore) feeds the
    /// engine's grouping pass straight from its content/ISP/bitrate columns
    /// without reassembling row records.
    pub fn key_parts(&self, content: ContentId, isp: IspId, bitrate: BitrateClass) -> SwarmKey {
        SwarmKey {
            content,
            isp: self.split_by_isp.then_some(isp),
            bitrate: self.split_by_bitrate.then_some(bitrate),
        }
    }
}

/// Identity of one sub-swarm under a [`SwarmPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwarmKey {
    /// The content item.
    pub content: ContentId,
    /// The ISP, when ISP-splitting is on.
    pub isp: Option<IspId>,
    /// The bitrate class, when bitrate-splitting is on.
    pub bitrate: Option<BitrateClass>,
}

impl std::fmt::Display for SwarmKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.content)?;
        if let Some(isp) = self.isp {
            write!(f, "/{isp}")?;
        }
        if let Some(b) = self.bitrate {
            write!(f, "/{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_topology::IspTopology;
    use consume_local_trace::device::DeviceClass;
    use consume_local_trace::{SimTime, UserId};

    fn session(isp: u8, device: DeviceClass) -> SessionRecord {
        let topo = IspTopology::london_table3().unwrap();
        SessionRecord {
            user: UserId(1),
            content: ContentId(42),
            start: SimTime(0),
            duration_secs: 600,
            device,
            isp: IspId(isp),
            location: topo.location_of(consume_local_topology::ExchangeId(0)),
        }
    }

    #[test]
    fn paper_default_splits_both_ways() {
        let p = SwarmPolicy::default();
        let a = p.key_for(&session(0, DeviceClass::Desktop));
        let b = p.key_for(&session(1, DeviceClass::Desktop));
        let c = p.key_for(&session(0, DeviceClass::HdTv));
        assert_ne!(a, b, "different ISPs split");
        assert_ne!(a, c, "different bitrates split");
        assert_eq!(
            a,
            p.key_for(&session(0, DeviceClass::Tablet)),
            "same bitrate merges"
        );
    }

    #[test]
    fn cross_isp_merges_isps() {
        let p = SwarmPolicy::cross_isp();
        let a = p.key_for(&session(0, DeviceClass::Desktop));
        let b = p.key_for(&session(4, DeviceClass::Desktop));
        assert_eq!(a, b);
        assert_eq!(a.isp, None);
    }

    #[test]
    fn content_only_merges_everything() {
        let p = SwarmPolicy::content_only();
        let a = p.key_for(&session(0, DeviceClass::Mobile));
        let b = p.key_for(&session(3, DeviceClass::FullHdTv));
        assert_eq!(a, b);
        assert_eq!(
            a,
            SwarmKey {
                content: ContentId(42),
                isp: None,
                bitrate: None
            }
        );
    }

    #[test]
    fn key_parts_matches_key_for() {
        for policy in [
            SwarmPolicy::paper_default(),
            SwarmPolicy::cross_isp(),
            SwarmPolicy::mixed_bitrate(),
            SwarmPolicy::content_only(),
        ] {
            for (isp, device) in [(0u8, DeviceClass::Desktop), (3, DeviceClass::Mobile)] {
                let s = session(isp, device);
                assert_eq!(
                    policy.key_for(&s),
                    policy.key_parts(s.content, s.isp, s.bitrate_class()),
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn key_display_is_compact() {
        let p = SwarmPolicy::paper_default();
        let key = p.key_for(&session(0, DeviceClass::Desktop));
        assert_eq!(key.to_string(), "item42/ISP-1/1.5Mbps");
        let key = SwarmPolicy::content_only().key_for(&session(0, DeviceClass::Desktop));
        assert_eq!(key.to_string(), "item42");
    }
}
