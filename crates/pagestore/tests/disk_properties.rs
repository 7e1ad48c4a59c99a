//! Property tests for the rotational-disk model: the qualitative facts the
//! experiments rely on must hold for arbitrary traces and parameters.

use dsf_pagestore::disk::DiskModel;
use dsf_pagestore::{AccessEvent, AccessKind};
use proptest::prelude::*;

fn ev(page: u64) -> AccessEvent {
    AccessEvent {
        page,
        kind: AccessKind::Read,
    }
}

fn arb_model() -> impl Strategy<Value = DiskModel> {
    (0.1f64..50.0, 0.1f64..20.0, 0.001f64..2.0, 0u64..64).prop_map(|(seek, rot, xfer, rt)| {
        DiskModel {
            avg_seek_ms: seek,
            rotational_latency_ms: rot,
            transfer_ms_per_page: xfer,
            read_through_pages: rt,
        }
    })
}

proptest! {
    /// Appending events never reduces the estimated time.
    #[test]
    fn replay_is_monotone_in_the_trace(
        model in arb_model(),
        pages in prop::collection::vec(any::<u32>(), 1..100),
    ) {
        let trace: Vec<AccessEvent> = pages.iter().map(|&p| ev(u64::from(p))).collect();
        let mut prev = 0.0;
        for i in 0..=trace.len() {
            let cost = model.replay_ms(&trace[..i]);
            prop_assert!(cost >= prev - 1e-9, "prefix {} got cheaper", i);
            prev = cost;
        }
    }

    /// The first access is a seek, and no access costs more than a
    /// random one: a non-empty trace costs at least one random access
    /// and at most one per access.
    #[test]
    fn replay_is_between_one_and_len_random_accesses(
        model in arb_model(),
        pages in prop::collection::vec(any::<u32>(), 1..100),
    ) {
        let trace: Vec<AccessEvent> = pages.iter().map(|&p| ev(u64::from(p))).collect();
        let cost = model.replay_ms(&trace);
        let random = model.random_access_ms();
        prop_assert!(cost >= random - 1e-9, "{} < one random access {}", cost, random);
        prop_assert!(
            cost <= trace.len() as f64 * random + 1e-9,
            "{} > {} random accesses of {}", cost, trace.len(), random
        );
    }

    /// A sorted (ascending) visit order never costs more than the same
    /// multiset of pages in arbitrary order.
    #[test]
    fn sorted_order_is_never_worse(
        model in arb_model(),
        pages in prop::collection::vec(any::<u16>(), 1..100),
    ) {
        let trace: Vec<AccessEvent> = pages.iter().map(|&p| ev(u64::from(p))).collect();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        let sorted_trace: Vec<AccessEvent> = sorted.iter().map(|&p| ev(u64::from(p))).collect();
        prop_assert!(
            model.replay_ms(&sorted_trace) <= model.replay_ms(&trace) + 1e-9
        );
    }
}
