//! Replay: per-command causal cost attribution and bound auditing.
//!
//! A flight log is a flat event stream; replay groups it by command
//! sequence number and reconstructs, for every completed command, the
//! breakdown *user-step vs SHIFT vs ACTIVATE vs rollback vs WAL* of its
//! page charges, its SHIFT-step count, and its causal trace (which nodes
//! were activated, rolled back, shifted). Each command is then checked
//! against two budgets:
//!
//! * the configured **J-step budget** — CONTROL 2 runs at most `J`
//!   SELECT→SHIFT iterations per command (step 4), and
//! * the **page budget** `K·(3J + 2) + 2` — step 1 reads and rewrites one
//!   slot of at most `K` pages (plus the probe's constant), and each of
//!   the at most `J` SHIFTs reads its source slot, rewrites the source's
//!   packed span, and writes its destination slot: at most `3K` pages
//!   (the store packs records densely, so removal rewrites the source —
//!   the accounting `PagedStore::move_records` charges). With
//!   `J = Θ(log²M/(D−d))` this budget *is* the paper's `O(log²M/(D−d))`
//!   worst-case bound, stated in physical pages.
//!
//! The arg-max offender (`worst`) carries its full causal trace, so a
//! histogram outlier can finally be answered with *which command, which
//! phase, which nodes*.

use std::collections::BTreeMap;

use crate::codec::{CommandKind, FlightEvent, Moment, Phase, PHASES};
use crate::log::FlightLog;

/// The audit budget derived from a file's resolved configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundBudget {
    /// CONTROL 2's per-command SHIFT budget `J`.
    pub j: u64,
    /// Pages per slot (`K`; 1 unless macro-blocking is active).
    pub k: u64,
    /// `L = ⌈log₂ M⌉` — calibrator depth.
    pub log_slots: u64,
    /// `D# − d#` — the per-slot density gap the bound divides by.
    pub gap: u64,
}

impl BoundBudget {
    /// The worst-case page-access budget per command (see module docs).
    pub fn page_limit(&self) -> u64 {
        self.k * (3 * self.j + 2) + 2
    }
}

/// One SHIFT in a command's causal trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftTrace {
    /// The warned node (heap index).
    pub node: u64,
    /// Source slot.
    pub source: u64,
    /// Destination slot.
    pub dest: u64,
    /// Records moved.
    pub moved: u64,
    /// DEST after the SHIFT, if it advanced past a saturated node.
    pub new_dest: Option<u64>,
}

/// The reconstructed cost story of one completed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandCost {
    /// Command sequence number.
    pub seq: u64,
    /// Insert or delete (`None` when the begin frame was evicted).
    pub kind: Option<CommandKind>,
    /// Slot (or shard) the command targeted.
    pub target: u64,
    /// Page charges per [`Phase`] (indexed by [`Phase::index`]).
    pub phase_pages: [u64; PHASES],
    /// Total page accesses, from the authoritative `CommandEnd` frame.
    pub accesses: u64,
    /// SHIFT invocations, from the `CommandEnd` frame.
    pub shift_steps: u64,
    /// Wall time in nanoseconds, from the `CommandEnd` frame. A group
    /// commit's lock wait and fsync are not in it: they are in the
    /// timeline of the request the command ran as.
    pub nanos: u64,
    /// Causal trace: every SHIFT in order.
    pub shifts: Vec<ShiftTrace>,
    /// Causal trace: every ACTIVATE `(node, initial DEST)`.
    pub activations: Vec<(u64, u64)>,
    /// Causal trace: every roll-back `(node, new DEST)`.
    pub rollbacks: Vec<(u64, u64)>,
    /// Warning flags lowered during the command.
    pub flags_lowered: u64,
    /// WAL frames appended for the command.
    pub wal_frames: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Dirty pages written back in the background on this command's
    /// behalf (charged by the I/O scheduler when the writeback completes,
    /// possibly long after the command ended). Tracked beside the
    /// foreground `phase_pages` — background writeback is deferred work,
    /// not part of the per-command access total `reconciles()` checks.
    pub writeback_pages: u64,
    /// Flag-stable moment snapshots `(class, per-slot counts)`: the rows
    /// of a Figure-4-style table.
    pub moments: Vec<(Moment, Vec<u64>)>,
    /// Whether the begin frame survived in the ring.
    pub begun: bool,
    /// Whether the end frame was seen (commands without one are dropped
    /// from attribution — they were cut off by eviction or a cancel).
    pub ended: bool,
    /// Whether the command was cancelled (replace / miss / refusal).
    pub cancelled: bool,
}

impl CommandCost {
    fn new(seq: u64) -> Self {
        CommandCost {
            seq,
            kind: None,
            target: 0,
            phase_pages: [0; PHASES],
            accesses: 0,
            shift_steps: 0,
            nanos: 0,
            shifts: Vec::new(),
            activations: Vec::new(),
            rollbacks: Vec::new(),
            flags_lowered: 0,
            wal_frames: 0,
            wal_bytes: 0,
            writeback_pages: 0,
            moments: Vec::new(),
            begun: false,
            ended: false,
            cancelled: false,
        }
    }

    /// Pages charged to the user step (step 1).
    pub fn user_pages(&self) -> u64 {
        self.phase_pages[Phase::User.index()]
    }

    /// Pages charged to SHIFTs (step 4b).
    pub fn shift_pages(&self) -> u64 {
        self.phase_pages[Phase::Shift.index()]
    }

    /// Pages charged to ACTIVATE (step 3; calibrator work, normally 0).
    pub fn activate_pages(&self) -> u64 {
        self.phase_pages[Phase::Activate.index()]
    }

    /// Pages charged to roll-back rules (normally 0).
    pub fn rollback_pages(&self) -> u64 {
        self.phase_pages[Phase::Rollback.index()]
    }

    /// Pages charged while in the WAL phase (the log itself is written in
    /// frames, not pages, so this is 0 unless a backend charges pages).
    pub fn wal_pages(&self) -> u64 {
        self.phase_pages[Phase::Wal.index()]
    }

    /// Sum of the per-phase page charges. For a fully captured command
    /// this equals [`CommandCost::accesses`] exactly — the reconciliation
    /// replay asserts.
    pub fn attributed(&self) -> u64 {
        self.phase_pages
            .iter()
            .fold(0u64, |a, &p| a.saturating_add(p))
    }
}

/// Why a command violated its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// `shift_steps > J`.
    JBudget {
        /// Offending command.
        seq: u64,
        /// Its SHIFT count.
        shift_steps: u64,
    },
    /// `accesses > page_limit()`.
    PageBound {
        /// Offending command.
        seq: u64,
        /// Its page-access total.
        accesses: u64,
    },
}

/// The audit verdict over a whole log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// The budget audited against.
    pub budget: BoundBudget,
    /// The page limit that was enforced.
    pub page_limit: u64,
    /// Every violation found, in seq order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no command exceeded either budget.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The result of replaying a log: every completed command's cost story.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Completed commands in sequence order.
    pub commands: Vec<CommandCost>,
    /// Commands seen but cancelled (replaces, misses, refusals).
    pub cancelled: u64,
    /// Commands begun whose end frame is missing (eviction casualties).
    pub incomplete: u64,
    /// Events the ring evicted before the snapshot.
    pub dropped: u64,
    /// The audit budget carried by the log.
    pub budget: BoundBudget,
}

impl Attribution {
    /// Groups a log's events by command and reconstructs each cost story.
    pub fn replay(log: &FlightLog) -> Self {
        let mut by_seq: BTreeMap<u64, CommandCost> = BTreeMap::new();
        for ev in &log.events {
            let seq = ev.seq();
            // Events recorded outside any command carry no page cost, and
            // a request timeline only points at the command that holds it.
            if seq == 0 || matches!(ev, FlightEvent::Request(_)) {
                continue;
            }
            let c = by_seq.entry(seq).or_insert_with(|| CommandCost::new(seq));
            match ev {
                FlightEvent::CommandBegin { kind, target, .. } => {
                    c.begun = true;
                    c.kind = Some(*kind);
                    c.target = *target;
                }
                FlightEvent::CommandEnd {
                    accesses,
                    shift_steps,
                    nanos,
                    ..
                } => {
                    c.ended = true;
                    c.accesses = *accesses;
                    c.shift_steps = *shift_steps;
                    c.nanos = *nanos;
                }
                FlightEvent::CommandCancel { .. } => c.cancelled = true,
                // Reads and writes both count as accesses (the paper's
                // cost unit does not distinguish them).
                FlightEvent::Access {
                    phase,
                    kind: _,
                    pages,
                    ..
                // All accumulators saturate: a log is untrusted input (any
                // `.flight` file parses), so adversarial values must not
                // panic the replayer.
                } => {
                    let p = &mut c.phase_pages[phase.index()];
                    *p = p.saturating_add(*pages);
                }
                FlightEvent::Shift {
                    node,
                    source,
                    dest,
                    moved,
                    new_dest,
                    ..
                } => c.shifts.push(ShiftTrace {
                    node: *node,
                    source: *source,
                    dest: *dest,
                    moved: *moved,
                    new_dest: *new_dest,
                }),
                FlightEvent::Activate { node, dest, .. } => c.activations.push((*node, *dest)),
                FlightEvent::Rollback { node, new_dest, .. } => {
                    c.rollbacks.push((*node, *new_dest))
                }
                FlightEvent::FlagLowered { .. } => c.flags_lowered += 1,
                FlightEvent::WalFrame { bytes, .. } => {
                    c.wal_frames += 1;
                    c.wal_bytes = c.wal_bytes.saturating_add(*bytes);
                }
                FlightEvent::Moment {
                    moment, counts, ..
                } => c.moments.push((*moment, counts.clone())),
                FlightEvent::Writeback { pages, .. } => {
                    c.writeback_pages = c.writeback_pages.saturating_add(*pages)
                }
                FlightEvent::Request(_) => {}
            }
        }
        let mut commands = Vec::with_capacity(by_seq.len());
        let mut cancelled = 0u64;
        let mut incomplete = 0u64;
        for (_, c) in by_seq {
            if c.cancelled {
                cancelled += 1;
            } else if c.ended {
                commands.push(c);
            } else {
                incomplete += 1;
            }
        }
        Attribution {
            commands,
            cancelled,
            incomplete,
            dropped: log.dropped,
            budget: log.budget,
        }
    }

    /// Completed commands.
    pub fn command_count(&self) -> u64 {
        self.commands.len() as u64
    }

    /// Sum of per-command access totals (saturating — logs are untrusted).
    pub fn total_accesses(&self) -> u64 {
        self.commands
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.accesses))
    }

    /// Sum of background writeback pages attributed across commands.
    pub fn total_writeback_pages(&self) -> u64 {
        self.commands
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.writeback_pages))
    }

    /// The largest per-command access total.
    pub fn max_accesses(&self) -> u64 {
        self.commands.iter().map(|c| c.accesses).max().unwrap_or(0)
    }

    /// The arg-max offender: the command with the most page accesses
    /// (earliest wins ties, matching `OpStats::max_accesses` semantics).
    pub fn worst(&self) -> Option<&CommandCost> {
        self.commands
            .iter()
            .max_by(|a, b| a.accesses.cmp(&b.accesses).then(b.seq.cmp(&a.seq)))
    }

    /// The `k` worst commands, most expensive first (ties by seq).
    pub fn top(&self, k: usize) -> Vec<&CommandCost> {
        let mut v: Vec<&CommandCost> = self.commands.iter().collect();
        v.sort_by(|a, b| b.accesses.cmp(&a.accesses).then(a.seq.cmp(&b.seq)));
        v.truncate(k);
        v
    }

    /// Looks a command up by sequence number.
    pub fn find(&self, seq: u64) -> Option<&CommandCost> {
        self.commands.iter().find(|c| c.seq == seq)
    }

    /// Whether every fully captured command's per-phase attribution sums
    /// to its authoritative total. Only meaningful when nothing was
    /// dropped (an evicted access frame loses its pages).
    pub fn reconciles(&self) -> bool {
        self.commands
            .iter()
            .filter(|c| c.begun)
            .all(|c| c.attributed() == c.accesses)
    }

    /// Audits every command against the J-step budget and the page bound.
    pub fn audit(&self) -> AuditReport {
        let page_limit = self.budget.page_limit();
        let mut violations = Vec::new();
        for c in &self.commands {
            if c.shift_steps > self.budget.j {
                violations.push(Violation::JBudget {
                    seq: c.seq,
                    shift_steps: c.shift_steps,
                });
            }
            if c.accesses > page_limit {
                violations.push(Violation::PageBound {
                    seq: c.seq,
                    accesses: c.accesses,
                });
            }
        }
        AuditReport {
            budget: self.budget,
            page_limit,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::AccessKind;

    fn budget() -> BoundBudget {
        BoundBudget {
            j: 3,
            k: 1,
            log_slots: 3,
            gap: 9,
        }
    }

    fn log(events: Vec<FlightEvent>) -> FlightLog {
        FlightLog {
            budget: budget(),
            total: events.len() as u64,
            dropped: 0,
            events,
        }
    }

    fn command(seq: u64, accesses: u64, shift_steps: u64) -> Vec<FlightEvent> {
        vec![
            FlightEvent::CommandBegin {
                seq,
                kind: CommandKind::Insert,
                target: 7,
            },
            FlightEvent::Access {
                seq,
                phase: Phase::User,
                kind: AccessKind::Read,
                pages: 2,
            },
            FlightEvent::Access {
                seq,
                phase: Phase::Shift,
                kind: AccessKind::Write,
                pages: accesses - 2,
            },
            FlightEvent::CommandEnd {
                seq,
                accesses,
                shift_steps,
                nanos: 10_000,
            },
        ]
    }

    #[test]
    fn attribution_reconstructs_phases_and_totals() {
        let mut events = command(1, 6, 2);
        events.extend(command(2, 18, 3));
        let attr = Attribution::replay(&log(events));
        assert_eq!(attr.command_count(), 2);
        assert_eq!(attr.total_accesses(), 24);
        assert_eq!(attr.max_accesses(), 18);
        assert!(attr.reconciles());
        let worst = attr.worst().unwrap();
        assert_eq!(worst.seq, 2);
        assert_eq!(worst.user_pages(), 2);
        assert_eq!(worst.shift_pages(), 16);
        assert_eq!(attr.top(1)[0].seq, 2);
    }

    #[test]
    fn cancelled_commands_are_excluded() {
        let mut events = command(1, 6, 1);
        events.push(FlightEvent::CommandBegin {
            seq: 2,
            kind: CommandKind::Insert,
            target: 0,
        });
        events.push(FlightEvent::CommandCancel { seq: 2 });
        let attr = Attribution::replay(&log(events));
        assert_eq!(attr.command_count(), 1);
        assert_eq!(attr.cancelled, 1);
    }

    #[test]
    fn audit_flags_both_budget_violations() {
        // J = 3, K = 1 → page limit = 1·(3·3+2)+2 = 13.
        assert_eq!(budget().page_limit(), 13);
        let mut events = command(1, 11, 3); // within both budgets
        events.extend(command(2, 14, 4)); // violates both
        let attr = Attribution::replay(&log(events));
        let report = attr.audit();
        assert!(!report.ok());
        assert_eq!(
            report.violations,
            vec![
                Violation::JBudget {
                    seq: 2,
                    shift_steps: 4
                },
                Violation::PageBound {
                    seq: 2,
                    accesses: 14
                },
            ]
        );
    }

    #[test]
    fn missing_end_counts_as_incomplete() {
        let events = vec![FlightEvent::CommandBegin {
            seq: 5,
            kind: CommandKind::Delete,
            target: 1,
        }];
        let attr = Attribution::replay(&log(events));
        assert_eq!(attr.command_count(), 0);
        assert_eq!(attr.incomplete, 1);
    }
}
