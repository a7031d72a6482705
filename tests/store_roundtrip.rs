//! Property tests: the columnar [`SessionStore`] must be a lossless,
//! canonically ordered transposition of row-record sessions — whatever the
//! records look like.

use proptest::prelude::*;

use consume_local::topology::{ExchangeId, IspId, PopId, UserLocation};
use consume_local::trace::device::DeviceClass;
use consume_local::trace::{ContentId, SessionRecord, SessionStore, SimTime, UserId};

const HORIZON: u64 = 30 * 86_400;
const USERS: usize = 500;

/// A fully ordered key over *every* record field, so permutation equality
/// can be checked without relying on tie order.
#[allow(clippy::type_complexity)]
fn full_key(s: &SessionRecord) -> (u64, u32, u32, u32, u32, u8, u32, u32) {
    (
        s.start.as_secs(),
        s.user.0,
        s.content.0,
        s.duration_secs,
        s.bitrate_bps(),
        s.isp.0,
        s.location.exchange().0,
        s.location.pop().0,
    )
}

fn record(
    (start, user, content, duration, device, isp, exchange): (u64, u32, u32, u32, usize, u8, u32),
) -> SessionRecord {
    SessionRecord {
        user: UserId(user),
        content: ContentId(content),
        start: SimTime(start),
        duration_secs: duration,
        device: DeviceClass::MIX[device].0,
        isp: IspId(isp),
        location: UserLocation::from_raw_parts(ExchangeId(exchange), PopId(exchange / 4)),
    }
}

fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    proptest::collection::vec(
        (
            0..HORIZON,
            0..USERS as u32,
            0u32..40,
            60u32..7_200,
            0usize..DeviceClass::MIX.len(),
            0u8..5,
            0u32..24,
        )
            .prop_map(record),
        0..200,
    )
}

proptest! {
    #[test]
    fn store_round_trips_records_losslessly(records in records_strategy()) {
        let store = SessionStore::from_records(&records, HORIZON, USERS);
        prop_assert_eq!(store.len(), records.len());
        let out = store.to_records();

        // Lossless: the round trip is a permutation of the input.
        let mut input_sorted = records.clone();
        input_sorted.sort_by_key(full_key);
        let mut out_sorted = out.clone();
        out_sorted.sort_by_key(full_key);
        prop_assert_eq!(&input_sorted, &out_sorted);

        // Canonical: output is ordered by (start, user, content).
        let canon = |s: &SessionRecord| (s.start.as_secs(), s.user.0, s.content.0);
        prop_assert!(out.windows(2).all(|w| canon(&w[0]) <= canon(&w[1])));

        // Idempotent: columnarising the round-tripped rows reproduces the
        // store bit for bit.
        prop_assert_eq!(&SessionStore::from_records(&out, HORIZON, USERS), &store);
    }

    #[test]
    fn store_columns_agree_with_records(records in records_strategy(), probe in 0..2 * HORIZON) {
        let store = SessionStore::from_records(&records, HORIZON, USERS);
        for i in 0..store.len() {
            let r = store.record(i);
            prop_assert_eq!(store.start_secs()[i], r.start.as_secs());
            prop_assert_eq!(store.duration_secs()[i], r.duration_secs);
            prop_assert_eq!(store.user()[i], r.user.0);
            prop_assert_eq!(store.content()[i], r.content.0);
            prop_assert_eq!(store.isp()[i], r.isp);
            prop_assert_eq!(store.location()[i], r.location);
            prop_assert_eq!(store.device()[i], r.device);
        }

        // The start lookup counts the sessions starting before the probe.
        let expect = store.start_secs().iter().filter(|&&s| s < probe).count();
        prop_assert_eq!(store.first_at_or_after(probe), expect);
    }
}
