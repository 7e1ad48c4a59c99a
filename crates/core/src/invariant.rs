//! Full-state invariant checker.
//!
//! Every property the paper's definitions and Theorem 5.5 promise at the end
//! of a command is checked here against the raw store and calibrator state
//! (via uncounted `peek` access, so checking never perturbs measurements):
//!
//! 1. per-slot sortedness and cross-slot ordering (condition iii);
//! 2. per-slot density `≤ D#` (condition ii, page capacity by packing);
//! 3. rank counters and cached minimum keys agree with the store;
//! 4. **BALANCE(d,D)**: `p(v) ≤ g(v,1)` at every node (Theorem 5.5);
//! 5. flag legality (Fact 5.1) at flag-stable moments, for CONTROL 2 under
//!    the paper's density-gap assumption;
//! 6. `DEST` pointer containment for warned nodes;
//! 7. the capacity bound `N ≤ d·M`.

use dsf_pagestore::Key;

use crate::calibrator::NodeId;
use crate::config::Algorithm;
use crate::file::DenseFile;

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Records within a slot are not strictly ascending.
    SlotUnsorted {
        /// The offending slot.
        slot: u32,
    },
    /// The maximum key of one slot does not precede the minimum of the next
    /// non-empty slot.
    CrossSlotOrder {
        /// The earlier slot.
        slot_a: u32,
        /// The later slot.
        slot_b: u32,
    },
    /// A slot holds more than `D#` records.
    SlotOverCapacity {
        /// The offending slot.
        slot: u32,
        /// Its record count.
        len: u64,
        /// The bound `D#`.
        max: u64,
    },
    /// A calibrator rank counter disagrees with the store.
    CountMismatch {
        /// Heap index of the node.
        node: u32,
        /// The cached `N_v`.
        cached: u64,
        /// The true count.
        actual: u64,
    },
    /// A cached minimum key disagrees with the store.
    MinKeyMismatch {
        /// Heap index of the node.
        node: u32,
    },
    /// BALANCE(d,D) fails: `p(v) > g(v,1)`.
    BalanceViolated {
        /// Heap index of the node.
        node: u32,
        /// Its rank counter.
        count: u64,
        /// Slots in its range.
        width: u64,
    },
    /// Fact 5.1(a) fails: a warned node has `p(x) ≤ g(x,⅓)`.
    StaleWarning {
        /// Heap index of the node.
        node: u32,
    },
    /// Fact 5.1(b) fails: an unwarned non-root node has `p(x) ≥ g(x,⅔)`.
    MissingWarning {
        /// Heap index of the node.
        node: u32,
    },
    /// A warned node's `DEST` pointer lies outside its father's range.
    DestOutOfRange {
        /// Heap index of the node.
        node: u32,
        /// The pointer value.
        dest: u32,
    },
    /// The file holds more than `N = d·M` records.
    OverCapacity {
        /// Records held.
        len: u64,
        /// The capacity.
        capacity: u64,
    },
}

impl InvariantViolation {
    /// Stable machine-readable variant name (for logs, artifacts, and the
    /// fault-suite's coverage accounting).
    pub fn name(&self) -> &'static str {
        use InvariantViolation::*;
        match self {
            SlotUnsorted { .. } => "SlotUnsorted",
            CrossSlotOrder { .. } => "CrossSlotOrder",
            SlotOverCapacity { .. } => "SlotOverCapacity",
            CountMismatch { .. } => "CountMismatch",
            MinKeyMismatch { .. } => "MinKeyMismatch",
            BalanceViolated { .. } => "BalanceViolated",
            StaleWarning { .. } => "StaleWarning",
            MissingWarning { .. } => "MissingWarning",
            DestOutOfRange { .. } => "DestOutOfRange",
            OverCapacity { .. } => "OverCapacity",
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    /// `"<name()>: <detail>"` — the stable machine-readable variant name is
    /// the single source of truth for the prefix, so log lines grep the same
    /// way the fault-suite's coverage accounting counts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use InvariantViolation::*;
        write!(f, "{}: ", self.name())?;
        match self {
            SlotUnsorted { slot } => write!(f, "slot {slot} is not sorted"),
            CrossSlotOrder { slot_a, slot_b } => {
                write!(f, "slots {slot_a} and {slot_b} are out of key order")
            }
            SlotOverCapacity { slot, len, max } => {
                write!(f, "slot {slot} holds {len} records, bound is {max}")
            }
            CountMismatch {
                node,
                cached,
                actual,
            } => {
                write!(
                    f,
                    "node {node}: rank counter {cached} ≠ true count {actual}"
                )
            }
            MinKeyMismatch { node } => write!(f, "node {node}: cached min key is wrong"),
            BalanceViolated { node, count, width } => {
                write!(
                    f,
                    "node {node}: BALANCE violated (N_v={count}, M_v={width})"
                )
            }
            StaleWarning { node } => {
                write!(f, "node {node}: warned although p ≤ g(1/3) (Fact 5.1a)")
            }
            MissingWarning { node } => {
                write!(f, "node {node}: unwarned although p ≥ g(2/3) (Fact 5.1b)")
            }
            DestOutOfRange { node, dest } => {
                write!(f, "node {node}: DEST={dest} outside the father's range")
            }
            OverCapacity { len, capacity } => {
                write!(f, "file holds {len} records, capacity is {capacity}")
            }
        }
    }
}

impl<K: Key, V> DenseFile<K, V> {
    /// Checks every invariant, returning all violations found.
    ///
    /// Uses uncounted access only — safe to call between measured commands.
    pub fn check_invariants(&self) -> Result<(), Vec<InvariantViolation>> {
        let mut out = Vec::new();
        self.check_store_order(&mut out);
        self.check_calibrator(&mut out);
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }

    fn check_store_order(&self, out: &mut Vec<InvariantViolation>) {
        let mut prev: Option<(u32, K)> = None;
        for s in 0..self.cfg.slots {
            let recs = self.store.peek_slot(s);
            if !recs.windows(2).all(|w| w[0].key < w[1].key) {
                out.push(InvariantViolation::SlotUnsorted { slot: s });
            }
            if recs.len() as u64 > self.cfg.slot_max {
                out.push(InvariantViolation::SlotOverCapacity {
                    slot: s,
                    len: recs.len() as u64,
                    max: self.cfg.slot_max,
                });
            }
            if let (Some((ps, pk)), Some(first)) = (prev, recs.first()) {
                if pk >= first.key {
                    out.push(InvariantViolation::CrossSlotOrder {
                        slot_a: ps,
                        slot_b: s,
                    });
                }
            }
            if let Some(last) = recs.last() {
                prev = Some((s, last.key));
            }
        }
        if self.len() > self.capacity() {
            out.push(InvariantViolation::OverCapacity {
                len: self.len(),
                capacity: self.capacity(),
            });
        }
    }

    fn check_calibrator(&self, out: &mut Vec<InvariantViolation>) {
        let control2 = self.cfg.algorithm == Algorithm::Control2;
        for n in self.cal.geometry().nodes() {
            let (lo, hi) = self.cal.range(n);
            let actual: u64 = (lo..=hi).map(|s| self.store.len(s) as u64).sum();
            let cached = self.cal.count(n);
            if cached != actual {
                out.push(InvariantViolation::CountMismatch {
                    node: n.0,
                    cached,
                    actual,
                });
            }
            let actual_min = (lo..=hi).filter_map(|s| self.store.min_key(s)).min();
            if self.cal.min_key(n) != actual_min {
                out.push(InvariantViolation::MinKeyMismatch { node: n.0 });
            }
            if self.cal.p_gt(n, 3) {
                out.push(InvariantViolation::BalanceViolated {
                    node: n.0,
                    count: cached,
                    width: self.cal.width(n),
                });
            }
            if control2 {
                if self.cal.is_warned(n) {
                    if self.cal.p_le(n, 1) {
                        out.push(InvariantViolation::StaleWarning { node: n.0 });
                    }
                    if let Some(p) = n.parent() {
                        let (flo, fhi) = self.cal.range(p);
                        let d = self.cal.dest(n);
                        if d < flo || d > fhi {
                            out.push(InvariantViolation::DestOutOfRange { node: n.0, dest: d });
                        }
                    }
                } else if n != NodeId::ROOT && self.cfg.meets_gap_assumption && self.cal.p_ge(n, 2)
                {
                    out.push(InvariantViolation::MissingWarning { node: n.0 });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DenseFileConfig;

    #[test]
    fn fresh_and_loaded_files_pass() {
        let mut f: DenseFile<u64, u32> =
            DenseFile::new(DenseFileConfig::control2(32, 8, 48)).unwrap();
        f.check_invariants().unwrap();
        f.bulk_load((0..100u64).map(|k| (k, 1))).unwrap();
        f.check_invariants().unwrap();
        for k in 200..260u64 {
            f.insert(k, 2).unwrap();
        }
        for k in 0..50u64 {
            f.remove(&k);
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn detects_corrupted_counters() {
        let mut f: DenseFile<u64, u32> =
            DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        f.bulk_load((0..10u64).map(|k| (k, 1))).unwrap();
        // Corrupt a rank counter behind the checker's back.
        f.cal.add_count(3, 5);
        let errs = f.check_invariants().unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, InvariantViolation::CountMismatch { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_corrupted_min_keys() {
        let mut f: DenseFile<u64, u32> =
            DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        f.bulk_load((0..10u64).map(|k| (k * 10, 1))).unwrap();
        f.cal.refresh_min(0, Some(99_999));
        let errs = f.check_invariants().unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, InvariantViolation::MinKeyMismatch { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_illegal_warning_states() {
        use crate::calibrator::NodeId;
        let mut f: DenseFile<u64, u32> =
            DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        f.bulk_load((0..10u64).map(|k| (k, 1))).unwrap();
        // A warned node far below g(1/3) violates Fact 5.1(a); aim its DEST
        // out of range for good measure.
        let leaf = f.cal.leaf_of(0);
        f.cal.set_warning(leaf, true);
        f.cal.set_dest(leaf, 7); // parent of a leaf spans ≤ 3 slots, not 8
        let errs = f.check_invariants().unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, InvariantViolation::StaleWarning { .. })));
        assert!(errs
            .iter()
            .any(|v| matches!(v, InvariantViolation::DestOutOfRange { .. })));
        // And a hot unwarned node violates 5.1(b): fabricate by lowering a
        // legitimately warned node's flag.
        let mut g: DenseFile<u64, u32> =
            DenseFile::new(DenseFileConfig::control2(8, 2, 16).with_j(1)).unwrap();
        for k in 0..10u64 {
            g.insert(k, 1).unwrap();
        }
        let warned: Vec<NodeId> = g.cal.warned_nodes();
        if let Some(&w) = warned.first() {
            g.cal.set_warning(w, false);
            let errs = g.check_invariants().unwrap_err();
            assert!(
                errs.iter()
                    .any(|v| matches!(v, InvariantViolation::MissingWarning { .. })),
                "{errs:?}"
            );
        }
    }

    #[test]
    fn violations_render_messages() {
        let v = InvariantViolation::BalanceViolated {
            node: 5,
            count: 99,
            width: 2,
        };
        assert!(v.to_string().contains("BALANCE"));
        let v = InvariantViolation::MissingWarning { node: 3 };
        assert!(v.to_string().contains("5.1b"));
    }

    #[test]
    fn display_is_prefixed_with_the_stable_name() {
        let samples = [
            InvariantViolation::SlotUnsorted { slot: 1 },
            InvariantViolation::CrossSlotOrder {
                slot_a: 1,
                slot_b: 2,
            },
            InvariantViolation::SlotOverCapacity {
                slot: 0,
                len: 9,
                max: 8,
            },
            InvariantViolation::CountMismatch {
                node: 1,
                cached: 2,
                actual: 3,
            },
            InvariantViolation::MinKeyMismatch { node: 4 },
            InvariantViolation::BalanceViolated {
                node: 5,
                count: 9,
                width: 1,
            },
            InvariantViolation::StaleWarning { node: 6 },
            InvariantViolation::MissingWarning { node: 7 },
            InvariantViolation::DestOutOfRange { node: 8, dest: 9 },
            InvariantViolation::OverCapacity {
                len: 10,
                capacity: 9,
            },
        ];
        for v in samples {
            let text = v.to_string();
            let prefix = format!("{}: ", v.name());
            assert!(text.starts_with(&prefix), "{text:?} !~ {prefix:?}");
            assert!(text.len() > prefix.len(), "{text:?} has no detail");
        }
    }
}
