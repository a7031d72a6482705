//! The session record: one user streaming one item once.

use consume_local_topology::{IspId, UserLocation};

use crate::content::ContentId;
use crate::device::{BitrateClass, DeviceClass};
use crate::population::UserId;
use crate::time::SimTime;

/// One playback session, the unit record of the trace (the paper's dataset
/// rows carry the same fields: timestamps, durations and bitrates per
/// session, plus the user's ISP and location).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRecord {
    /// Who watched.
    pub user: UserId,
    /// What they watched.
    pub content: ContentId,
    /// When playback started.
    pub start: SimTime,
    /// How long they watched, in seconds (≤ the item duration).
    pub duration_secs: u32,
    /// The device class (fixes the bitrate).
    pub device: DeviceClass,
    /// The user's ISP (denormalised from the population for fast grouping).
    pub isp: IspId,
    /// The user's attachment point (denormalised likewise).
    pub location: UserLocation,
}

impl SessionRecord {
    /// When playback ends.
    pub fn end(&self) -> SimTime {
        self.start + u64::from(self.duration_secs)
    }

    /// Whether the session is active at time `t` (half-open `[start, end)`).
    pub fn is_active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end()
    }

    /// The streaming bitrate in bits per second.
    pub fn bitrate_bps(&self) -> u32 {
        self.device.bitrate_bps()
    }

    /// The swarm bitrate class.
    pub fn bitrate_class(&self) -> BitrateClass {
        self.device.bitrate_class()
    }

    /// Bytes consumed by the whole session (`bitrate × duration / 8`).
    pub fn bytes_watched(&self) -> u64 {
        u64::from(self.bitrate_bps()) * u64::from(self.duration_secs) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_topology::IspTopology;

    fn record() -> SessionRecord {
        let topo = IspTopology::london_table3().unwrap();
        SessionRecord {
            user: UserId(7),
            content: ContentId(3),
            start: SimTime::from_day_hour(2, 20),
            duration_secs: 1800,
            device: DeviceClass::Desktop,
            isp: IspId(0),
            location: topo.location_of(consume_local_topology::ExchangeId(12)),
        }
    }

    #[test]
    fn end_and_activity() {
        let r = record();
        assert_eq!(r.end(), r.start + 1800);
        assert!(r.is_active_at(r.start));
        assert!(r.is_active_at(r.start + 1799));
        assert!(!r.is_active_at(r.end()));
        assert!(!r.is_active_at(r.start - 1));
    }

    #[test]
    fn bytes_watched_matches_bitrate() {
        let r = record();
        // 1.5 Mb/s × 1800 s / 8 = 337.5 MB
        assert_eq!(r.bytes_watched(), 1_500_000u64 * 1800 / 8);
        assert_eq!(r.bitrate_class().bps(), 1_500_000);
    }

    #[test]
    fn zero_duration_session_is_never_active() {
        let mut r = record();
        r.duration_secs = 0;
        assert!(!r.is_active_at(r.start));
        assert_eq!(r.bytes_watched(), 0);
    }
}
