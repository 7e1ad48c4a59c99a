//! Flight-recorder round-trip and reconciliation properties.
//!
//! Two halves, one promise: nothing is lost or invented between the hot
//! path and `dsf explain`.
//!
//! * Property tests drive *arbitrary* event sequences through
//!   encode → `.flight` bytes → decode and through the byte-budget ring,
//!   and check that replay/attribution is a pure function of the events.
//!   These build private `FlightLog`/`FlightRing` values — no globals.
//! * One live end-to-end test enables the *global* recorder over a real
//!   `DenseFile` workload and reconciles the replayed attribution against
//!   the file's own `OpStats` and `IoStats` counters. It is the only test
//!   in this binary that touches the global ring (cargo gives each
//!   `tests/*.rs` file its own process, which is the isolation we need —
//!   same pattern as `tests/telemetry_reconcile.rs`).

use proptest::prelude::*;
use willard_dsf::flight::request::FALLBACK_ID_BIT;
use willard_dsf::flight::{
    self, AccessKind, Attribution, BoundBudget, CommandKind, FlightEvent, FlightLog, FlightRing,
    Moment, Phase, RequestTimeline, REQUEST_PHASES,
};

fn arb_phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::User),
        Just(Phase::Shift),
        Just(Phase::Activate),
        Just(Phase::Rollback),
        Just(Phase::Wal),
    ]
}

/// A served request's timeline frame, biased toward the edges: server-
/// assigned (fallback-bit) ids, seq 0 (a read) and saturated phases.
fn arb_request() -> impl Strategy<Value = FlightEvent> {
    let phase = prop_oneof![Just(0u64), Just(u64::MAX), 0u64..10_000_000, any::<u64>()];
    (
        prop_oneof![
            any::<u64>(),
            any::<u64>().prop_map(|id| id | FALLBACK_ID_BIT)
        ],
        prop_oneof![Just(0u64), 0u64..1000, any::<u64>()],
        any::<u64>(),
        any::<u8>(),
        any::<u64>(),
        prop::collection::vec(phase, REQUEST_PHASES..REQUEST_PHASES + 1),
    )
        .prop_map(|(id, seq, client, kind, started, phases)| {
            FlightEvent::Request(RequestTimeline {
                id,
                client,
                seq,
                kind,
                started,
                phases: phases.try_into().expect("REQUEST_PHASES phases"),
            })
        })
}

/// Any frame a command records (everything but a request timeline).
fn arb_command_event() -> impl Strategy<Value = FlightEvent> {
    let seq = 0u64..1000;
    prop_oneof![
        (seq.clone(), any::<bool>(), 0u64..256).prop_map(|(seq, ins, target)| {
            FlightEvent::CommandBegin {
                seq,
                kind: if ins {
                    CommandKind::Insert
                } else {
                    CommandKind::Delete
                },
                target,
            }
        }),
        (seq.clone(), 0u64..100, 0u64..10, any::<u64>()).prop_map(
            |(seq, accesses, shift_steps, nanos)| FlightEvent::CommandEnd {
                seq,
                accesses,
                shift_steps,
                nanos,
            }
        ),
        seq.clone()
            .prop_map(|seq| FlightEvent::CommandCancel { seq }),
        (seq.clone(), arb_phase(), any::<bool>(), 0u64..50).prop_map(
            |(seq, phase, read, pages)| FlightEvent::Access {
                seq,
                phase,
                kind: if read {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                pages,
            }
        ),
        (
            seq.clone(),
            0u64..64,
            0u64..256,
            0u64..256,
            0u64..100,
            prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        )
            .prop_map(
                |(seq, node, source, dest, moved, new_dest)| FlightEvent::Shift {
                    seq,
                    node,
                    source,
                    dest,
                    moved,
                    new_dest,
                }
            ),
        (seq.clone(), 0u64..64, 0u64..256).prop_map(|(seq, node, dest)| FlightEvent::Activate {
            seq,
            node,
            dest
        }),
        (seq.clone(), 0u64..64, 0u64..256).prop_map(|(seq, node, new_dest)| {
            FlightEvent::Rollback {
                seq,
                node,
                new_dest,
            }
        }),
        (seq.clone(), 0u64..64).prop_map(|(seq, node)| FlightEvent::FlagLowered { seq, node }),
        (seq.clone(), any::<u64>()).prop_map(|(seq, bytes)| FlightEvent::WalFrame { seq, bytes }),
        (
            seq,
            prop_oneof![Just(Moment::AfterStep3), Just(Moment::AfterStep4c)],
            prop::collection::vec(0u64..100, 0..16)
        )
            .prop_map(|(seq, moment, counts)| FlightEvent::Moment {
                seq,
                moment,
                counts,
            }),
    ]
}

fn arb_event() -> impl Strategy<Value = FlightEvent> {
    prop_oneof![10 => arb_command_event(), 1 => arb_request()]
}

fn arb_budget() -> impl Strategy<Value = BoundBudget> {
    (1u64..16, 1u64..8, 1u64..20, 1u64..64).prop_map(|(j, k, log_slots, gap)| BoundBudget {
        j,
        k,
        log_slots,
        gap,
    })
}

/// Attribution totals that must be stable across any encode/decode cycle.
fn fingerprint(a: &Attribution) -> (u64, u64, u64, u64, u64, bool) {
    (
        a.command_count(),
        a.total_accesses(),
        a.max_accesses(),
        a.cancelled,
        a.incomplete,
        a.reconciles(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary event sequences survive encode → `.flight` bytes →
    /// decode exactly, and the decoded log replays to identical
    /// attribution (including the audit verdicts).
    fn flight_log_round_trips(
        events in prop::collection::vec(arb_event(), 0..120),
        budget in arb_budget(),
        dropped in 0u64..50,
    ) {
        let log = FlightLog {
            budget,
            total: dropped + events.len() as u64,
            dropped,
            events,
        };
        let bytes = log.to_bytes();
        let back = FlightLog::from_reader(&mut bytes.as_slice()).expect("bytes parse back");

        prop_assert_eq!(&back.events, &log.events);
        prop_assert_eq!(back.total, log.total);
        prop_assert_eq!(back.dropped, log.dropped);
        prop_assert_eq!(back.budget.j, log.budget.j);
        prop_assert_eq!(back.budget.k, log.budget.k);
        prop_assert_eq!(back.budget.log_slots, log.budget.log_slots);
        prop_assert_eq!(back.budget.gap, log.budget.gap);
        prop_assert_eq!(back.budget.page_limit(), log.budget.page_limit());

        let a = log.replay();
        let b = back.replay();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(a.audit().violations, b.audit().violations);
        // Double round-trip is byte-identical (the format is canonical).
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// The byte-budget ring never tears a frame: whatever capacity forces
    /// it to drop, the retained snapshot is exactly the newest suffix of
    /// what was pushed, and retained + dropped = total.
    fn flight_ring_drops_whole_frames_oldest_first(
        events in prop::collection::vec(arb_command_event(), 1..80),
        capacity in 32usize..512,
    ) {
        let ring = FlightRing::new(capacity);
        for ev in &events {
            ring.push(ev);
        }
        let (kept, dropped) = ring.snapshot();
        prop_assert_eq!(ring.total(), events.len() as u64);
        prop_assert_eq!(kept.len() as u64 + dropped, events.len() as u64);
        prop_assert_eq!(&kept[..], &events[dropped as usize..]);
        prop_assert!(ring.bytes() <= capacity.max(1));
    }

    /// A `Request` frame round-trips alone and inside a `.flight` file; cut
    /// anywhere short of its end, it decodes to nothing (a frame) or to an
    /// error (a file), never to a panic or a misparse.
    fn request_frames_round_trip_and_torn_ones_fail_cleanly(
        ev in arb_request(),
        cut_at in any::<u64>(),
    ) {
        let mut frame = Vec::new();
        ev.encode(&mut frame);
        prop_assert_eq!(flight::decode_frames(&frame), vec![ev.clone()]);

        let mut pos = 0;
        let len = flight::get_varint(&frame, &mut pos).expect("length prefix") as usize;
        let payload = &frame[pos..];
        prop_assert_eq!(payload.len(), len);
        let cut = (cut_at % len as u64) as usize;
        prop_assert_eq!(FlightEvent::decode_payload(&payload[..cut]), None);
        prop_assert!(flight::decode_frames(&frame[..pos + cut]).is_empty());

        let log = FlightLog {
            budget: BoundBudget { j: 3, k: 1, log_slots: 3, gap: 9 },
            total: 1,
            dropped: 0,
            events: vec![ev],
        };
        let bytes = log.to_bytes();
        let back = FlightLog::from_reader(&mut bytes.as_slice()).expect("whole file parses");
        prop_assert_eq!(&back.events, &log.events);
        let torn = &bytes[..bytes.len() - 1 - (cut_at % len as u64) as usize];
        prop_assert!(FlightLog::from_reader(&mut &torn[..]).is_err());
    }

    /// Request frames carry no page cost: replaying a command log with
    /// timelines spliced in anywhere — their seqs naming its commands or
    /// not — attributes exactly what the command frames alone do.
    fn request_frames_leave_page_attribution_unchanged(
        commands in prop::collection::vec(arb_command_event(), 0..80),
        requests in prop::collection::vec((arb_request(), any::<usize>()), 0..20),
    ) {
        let mut mixed = commands.clone();
        for (req, at) in requests {
            mixed.insert(at % (mixed.len() + 1), req);
        }
        let log = |events: Vec<FlightEvent>| FlightLog {
            budget: BoundBudget { j: 3, k: 1, log_slots: 3, gap: 9 },
            total: events.len() as u64,
            dropped: 0,
            events,
        };
        let a = log(commands).replay();
        let b = log(mixed).replay();
        prop_assert_eq!(&a.commands, &b.commands);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(a.audit().violations, b.audit().violations);
    }

    /// For well-formed command traces (begin, per-phase accesses, end) the
    /// attribution recovers exactly the per-phase page sums this test
    /// computed on the way in — per command and in total.
    fn attribution_recovers_per_phase_sums(
        commands in prop::collection::vec(
            (any::<bool>(), 0u64..64, prop::collection::vec((arb_phase(), 1u64..10), 0..12)),
            1..24,
        ),
    ) {
        let mut events = Vec::new();
        let mut want = Vec::new(); // (seq, [user,shift,activate,rollback,wal], total)
        for (i, (ins, target, charges)) in commands.iter().enumerate() {
            let seq = i as u64 + 1;
            events.push(FlightEvent::CommandBegin {
                seq,
                kind: if *ins { CommandKind::Insert } else { CommandKind::Delete },
                target: *target,
            });
            let mut by_phase = [0u64; flight::PHASES];
            for (phase, pages) in charges {
                events.push(FlightEvent::Access {
                    seq,
                    phase: *phase,
                    kind: AccessKind::Write,
                    pages: *pages,
                });
                by_phase[phase.index()] += pages;
            }
            let total: u64 = by_phase.iter().sum();
            events.push(FlightEvent::CommandEnd { seq, accesses: total, shift_steps: 0, nanos: 0 });
            want.push((seq, by_phase, total));
        }
        let log = FlightLog {
            budget: BoundBudget { j: 3, k: 1, log_slots: 3, gap: 9 },
            total: events.len() as u64,
            dropped: 0,
            events,
        };
        let attr = log.replay();
        prop_assert!(attr.reconciles());
        prop_assert_eq!(attr.command_count(), want.len() as u64);
        let mut grand = 0u64;
        for (seq, by_phase, total) in &want {
            let c = attr.find(*seq).expect("complete command present");
            prop_assert_eq!(c.accesses, *total);
            prop_assert_eq!(c.user_pages(), by_phase[Phase::User.index()]);
            prop_assert_eq!(c.shift_pages(), by_phase[Phase::Shift.index()]);
            prop_assert_eq!(c.activate_pages(), by_phase[Phase::Activate.index()]);
            prop_assert_eq!(c.rollback_pages(), by_phase[Phase::Rollback.index()]);
            prop_assert_eq!(c.wal_pages(), by_phase[Phase::Wal.index()]);
            prop_assert_eq!(c.attributed(), *total);
            grand += total;
        }
        prop_assert_eq!(attr.total_accesses(), grand);
        prop_assert_eq!(attr.max_accesses(), want.iter().map(|w| w.2).max().unwrap_or(0));
    }
}

/// The live acceptance criterion: record a real workload through the
/// *global* flight recorder and reconcile the replayed attribution with
/// the live counters — command count and access totals against `OpStats`,
/// the grand total against the `IoStats` delta over the recorded window.
#[test]
fn live_attribution_reconciles_with_op_stats_and_io_stats() {
    use willard_dsf::{DenseFile, DenseFileConfig};

    let mut f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(256, 6, 8)).unwrap();
    let capacity = f.capacity();
    let backbone = capacity * 3 / 5;
    let stride = u64::MAX / (backbone + 1);
    f.bulk_load((0..backbone).map(|i| (i * stride, i))).unwrap();

    flight::clear();
    flight::enable();
    let io_before = f.io_stats().snapshot();
    let ops_before = f.op_stats().clone();

    // Unique fresh keys (odd, backbone keys are even multiples of stride)
    // so every insert is structural; deletes of present keys likewise.
    let mut inserted = Vec::new();
    for i in 0..(capacity - backbone).saturating_sub(8) {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1) | 1;
        if f.insert(k, i).is_ok() {
            inserted.push(k);
        }
    }
    for &k in inserted.iter().step_by(2) {
        f.remove(&k).unwrap();
    }

    let io_delta = f.io_stats().since(io_before);
    flight::disable();
    let log = flight::snapshot_log(BoundBudget {
        j: 3,
        k: 1,
        log_slots: 8,
        gap: 2,
    });
    flight::clear();
    assert_eq!(log.dropped, 0, "1 MiB default ring must hold this run");

    let stats = f.op_stats();
    let commands = stats.commands - ops_before.commands;
    assert!(commands > 100, "workload too small to be meaningful");

    let attr = log.replay();
    assert!(
        attr.reconciles(),
        "per-phase sums must equal CommandEnd totals"
    );
    assert_eq!(attr.command_count(), commands);
    assert_eq!(attr.cancelled, 0);
    assert_eq!(attr.incomplete, 0);
    assert_eq!(
        attr.total_accesses(),
        stats.total_accesses - ops_before.total_accesses
    );
    assert_eq!(attr.max_accesses(), stats.max_accesses);

    // Every page charged between enable and disable happened inside a
    // command, so the flight total is the IoStats window exactly.
    assert_eq!(attr.total_accesses(), io_delta.reads + io_delta.writes);

    // And the log survives persistence bit-for-bit.
    let bytes = log.to_bytes();
    let back = FlightLog::from_reader(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.events, log.events);
    assert_eq!(fingerprint(&back.replay()), fingerprint(&attr));
}
