//! CONTROL 2 — the paper's worst-case maintenance algorithm (§4).
//!
//! After step 1 of every command (performed in `file.rs`) this module runs:
//!
//! * **step 2** — lower the warning flag of any path node whose density
//!   fell to `p(x) ≤ g(x,⅓)`;
//! * **step 3** — ACTIVATE any non-root path node that rose to
//!   `p(w) ≥ g(w,⅔)` while unwarned: raise its flag, aim its `DEST` pointer
//!   at the far end of its father's range, and apply the two roll-back
//!   rules to warned nodes whose pointers traverse an enclosing range;
//! * **step 4** — `J` iterations of SELECT → SHIFT → flag-lowering.
//!
//! SHIFT moves records from `SOURCE(v)` (the nearest non-empty page beyond
//! `DEST(v)`) into `DEST(v)` until either the source empties or some node of
//! `UP(v)` — the nodes containing the destination but not the source —
//! reaches its `g(·,0)` density, in which case `DEST(v)` advances past the
//! highest such saturated node. Repeated over many commands this spreads the
//! records of the warned node's father evenly, which is what ultimately
//! drives `p(v)` back below `g(v,⅓)` — the paper's "evolutionary process".
//!
//! Every subroutine is a faithful transcription of the paper's definitions;
//! the unit tests in this module and the golden test of Example 5.2 pin the
//! behaviour move for move.

use dsf_flight::Moment;
use dsf_pagestore::{End, Key};

use crate::calibrator::NodeId;
use crate::file::DenseFile;

/// Outcome of one SHIFT invocation (used by step 4c).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShiftOutcome {
    /// The source page, if one existed.
    pub source: Option<u32>,
    /// The destination page records were moved to.
    pub dest: u32,
    /// Records moved.
    pub moved: u64,
}

impl<K: Key, V> DenseFile<K, V> {
    /// Steps 2–4 of CONTROL 2, run after step 1 touched `slot`.
    pub(crate) fn control2_after_update(&mut self, slot: u32) {
        self.lower_flags_on_path(slot); // step 2
        self.activate_on_path(slot); // step 3
        self.emit_flag_stable(Moment::AfterStep3);
        for _ in 0..self.cfg.j {
            // step 4a
            let selected = if self.cfg.tweaks.select_shallowest {
                self.cal.select_shallowest(slot)
            } else {
                self.cal.select(slot)
            };
            let Some(v) = selected else {
                // No warned node anywhere; SELECT cannot succeed for the
                // rest of this command either.
                self.stats.idle_steps += 1;
                break;
            };
            // step 4b: the shift's page traffic lands in the flight
            // record's Shift phase.
            let outcome = {
                let _phase = dsf_flight::phase(dsf_flight::Phase::Shift);
                self.shift(v)
            };
            // step 4c: only nodes whose density *decreased* can newly fall
            // under g(·,⅓): those containing the source but not the dest.
            if let Some(source) = outcome.source {
                if outcome.moved > 0 {
                    for x in self.cal.up_path(source, outcome.dest) {
                        self.lower_if_cold(x);
                    }
                }
            }
            self.emit_flag_stable(Moment::AfterStep4c);
        }
    }

    /// Step 2: lower any warned node on the leaf-to-root path of `slot`
    /// whose density is now `≤ g(·,⅓)`.
    fn lower_flags_on_path(&mut self, slot: u32) {
        let mut n = self.cal.leaf_of(slot);
        loop {
            self.lower_if_cold(n);
            match n.parent() {
                Some(p) => n = p,
                None => break,
            }
        }
    }

    fn lower_if_cold(&mut self, n: NodeId) {
        // Ablation: `narrow_hysteresis` collapses the band by lowering
        // already at g(·,2/3) instead of g(·,1/3).
        let q = if self.cfg.tweaks.narrow_hysteresis {
            2
        } else {
            1
        };
        if self.cal.is_warned(n) && self.cal.p_le(n, q) {
            self.cal.set_warning(n, false);
            self.stats.flags_lowered += 1;
            dsf_flight::record_flag_lowered(u64::from(n.0));
        }
    }

    /// Step 3: ACTIVATE unwarned non-root path nodes that reached
    /// `p(w) ≥ g(w,⅔)`, shallowest first so that deeper activations roll
    /// back the pointers their ancestors just received.
    fn activate_on_path(&mut self, slot: u32) {
        // The path's nodes are the leaf's heap index shifted up: depth 1
        // (the root's sons) first, the leaf last.
        let leaf = self.cal.leaf_of(slot);
        for up in (0..leaf.depth()).rev() {
            let w = NodeId(leaf.0 >> up);
            if !self.cal.is_warned(w) && self.cal.p_ge(w, 2) {
                self.activate(w);
            }
        }
    }

    /// The paper's ACTIVATE(w).
    pub(crate) fn activate(&mut self, w: NodeId) {
        debug_assert!(w != NodeId::ROOT, "the root is never activated");
        let _phase = dsf_flight::phase(dsf_flight::Phase::Activate);
        // 1. Raise w into a warning state.
        self.cal.set_warning(w, true);
        self.stats.activations += 1;
        // 2. Aim DEST(w) at the far end of the father's range.
        let fw = w.parent().expect("non-root");
        let (flo, fhi) = self.cal.range(fw);
        let dest = if w.is_right_child() { flo } else { fhi };
        self.cal.set_dest(w, dest);
        dsf_flight::record_activate(u64::from(w.0), u64::from(dest));
        // 3. Roll-back rules: any warned node y with RANGE(f_y) ⊃ RANGE(f_w)
        //    whose DEST traverses RANGE(f_w) is reset to the far edge of
        //    RANGE(f_w), so it can later repair damage done by SHIFT(w).
        //    Such y are exactly the children of proper ancestors of f_w.
        if self.cfg.tweaks.disable_rollback {
            return; // ablation E8: measure what thrashing costs
        }
        let mut anc = fw.parent();
        while let Some(a) = anc {
            // Ancestors are internal, so both sons exist.
            for y in [a.left(), a.right()] {
                if !self.cal.is_warned(y) {
                    continue;
                }
                let dy = self.cal.dest(y);
                if y.is_right_child() {
                    // Roll-back rule 1 (DIR(y)=1): A⁻(f_w)+1 ≤ DEST(y) ≤ A⁺(f_w).
                    if dy > flo && dy <= fhi {
                        self.cal.set_dest(y, flo);
                        self.stats.rollbacks += 1;
                        dsf_flight::record_rollback(u64::from(y.0), u64::from(flo));
                    }
                } else {
                    // Roll-back rule 0 (DIR(y)=0): A⁻(f_w) ≤ DEST(y) ≤ A⁺(f_w)−1.
                    if dy >= flo && dy < fhi {
                        self.cal.set_dest(y, fhi);
                        self.stats.rollbacks += 1;
                        dsf_flight::record_rollback(u64::from(y.0), u64::from(fhi));
                    }
                }
            }
            anc = a.parent();
        }
    }

    /// The paper's SHIFT(v). Caller guarantees `v` is warned.
    pub(crate) fn shift(&mut self, v: NodeId) -> ShiftOutcome {
        debug_assert!(self.cal.is_warned(v));
        self.stats.shifts += 1;
        let fv = v.parent().expect("warned nodes are non-root");
        let (flo, fhi) = self.cal.range(fv);
        let dest = self.cal.dest(v);
        debug_assert!(
            flo <= dest && dest <= fhi,
            "DEST must stay inside RANGE(f_v)"
        );
        let rightwards_source = v.is_right_child(); // records flow left

        // 1. SOURCE(v): nearest non-empty page beyond DEST in shift direction.
        let source = if rightwards_source {
            (dest < fhi)
                .then(|| self.cal.next_nonempty(dest + 1, fhi))
                .flatten()
        } else {
            (dest > flo)
                .then(|| self.cal.prev_nonempty(flo, dest - 1))
                .flatten()
        };
        let Some(source) = source else {
            // Defensive: the paper's proof implies v's flag drops before
            // this state is reachable (DESIGN.md §3.6). Counted, no-op.
            self.stats.no_source_shifts += 1;
            return ShiftOutcome {
                source: None,
                dest,
                moved: 0,
            };
        };

        // 2. Move records until SOURCE empties or an UP(v) node reaches
        //    g(·,0). UP(v) = nodes containing DEST but not SOURCE.
        let up = self.cal.up_path(dest, source);
        let quota = up
            .clone()
            .map(|x| self.cal.records_until_ge(x, 0))
            .min()
            .expect("UP is non-empty");
        let n = quota.min(self.store.len(source) as u64);
        if n > 0 {
            // DEST < SOURCE: the lowest keys of SOURCE append to DEST.
            // SOURCE < DEST: the highest keys of SOURCE prepend to DEST.
            let from = if rightwards_source {
                End::Front
            } else {
                End::Back
            };
            self.store.move_records(source, dest, n as usize, from);
            // One slot at a time: the counts decide which minima are
            // real, so DEST's count must not rise before SOURCE's climb
            // has read DEST's (possibly placeholder) minimum.
            self.cal
                .update_slot(source, -(n as i64), self.store.min_key(source));
            self.cal
                .update_slot(dest, n as i64, self.store.min_key(dest));
            self.stats.records_shifted += n;
        } else {
            self.stats.empty_shifts += 1;
        }

        // 3. Advance DEST past the least-deep saturated UP(v) node, if any.
        // `up` is ordered deepest-first; the last match is the least deep.
        let xstar = up.filter(|&x| self.cal.p_ge(x, 0)).last();
        let new_dest = xstar.map(|xs| {
            let (xlo, xhi) = self.cal.range(xs);
            if rightwards_source {
                xhi + 1
            } else {
                xlo - 1
            }
        });
        if let Some(nd) = new_dest {
            self.cal.set_dest(v, nd);
        }
        dsf_flight::record_shift(
            u64::from(v.0),
            u64::from(source),
            u64::from(dest),
            n,
            new_dest.map(u64::from),
        );
        ShiftOutcome {
            source: Some(source),
            dest,
            moved: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DenseFileConfig, MacroBlocking};
    use dsf_flight::{CommandKind, FlightEvent};

    /// The Example 5.2 file: M=8, d=9, D=18, J=3, K forced to 1.
    fn example_file() -> DenseFile<u64, ()> {
        let cfg = DenseFileConfig::control2(8, 9, 18)
            .with_j(3)
            .with_macro_blocking(MacroBlocking::Disabled);
        let mut f = DenseFile::new(cfg).unwrap();
        // t₀ layout: [16, 1, 0, 1, 9, 9, 9, 16]; keys spaced so that slot s
        // holds keys in (s·1000, (s+1)·1000).
        let counts = [16usize, 1, 0, 1, 9, 9, 9, 16];
        let layout: Vec<Vec<(u64, ())>> = counts
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                (0..n)
                    .map(|i| (s as u64 * 1000 + i as u64 + 1, ()))
                    .collect()
            })
            .collect();
        f.bulk_load_per_slot(layout).unwrap();
        f
    }

    fn counts(f: &DenseFile<u64, ()>) -> Vec<u64> {
        f.slot_counts()
    }

    /// The flight frames `cmds` records on `f`, moment snapshots included.
    fn captured(
        f: &mut DenseFile<u64, ()>,
        cmds: impl FnOnce(&mut DenseFile<u64, ()>),
    ) -> Vec<FlightEvent> {
        dsf_flight::capture(|| cmds(f)).1.events
    }

    /// The per-slot counts of every flag-stable moment in `evs`.
    fn moment_rows(evs: Vec<FlightEvent>) -> Vec<Vec<u64>> {
        evs.into_iter()
            .filter_map(|e| match e {
                FlightEvent::Moment { counts, .. } => Some(counts),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn example_5_2_command_z1_reproduces_rows_t1_to_t4() {
        let mut f = example_file();
        assert_eq!(counts(&f), vec![16, 1, 0, 1, 9, 9, 9, 16]);
        assert_eq!(f.cal.warned_total(), 0, "t₀: all nodes non-warning");

        // Z₁: insert a record into page 8 (slot 7): key above slot 7's keys.
        let evs = captured(&mut f, |f| {
            f.insert(7500, ()).unwrap();
        });
        assert_eq!(counts(&f), vec![16, 2, 0, 0, 9, 9, 15, 11], "t₄ row");

        // Verify the flag-stable snapshots t₁..t₄ from the flight frames.
        assert_eq!(
            moment_rows(evs),
            vec![
                vec![16, 1, 0, 1, 9, 9, 9, 17],  // t₁ (after step 3)
                vec![16, 1, 0, 1, 9, 9, 15, 11], // t₂ (SHIFT(L8) moved 6)
                vec![16, 1, 0, 1, 9, 9, 15, 11], // t₃ (SHIFT(v3) moved 0)
                vec![16, 2, 0, 0, 9, 9, 15, 11], // t₄ (page 4 → page 2)
            ]
        );
    }

    #[test]
    fn example_5_2_command_z2_reproduces_rows_t5_to_t8() {
        let mut f = example_file();
        f.insert(7500, ()).unwrap(); // Z₁
        let evs = captured(&mut f, |f| {
            f.insert(500, ()).unwrap(); // Z₂: insert into page 1 (slot 0).
        });
        assert_eq!(counts(&f), vec![15, 9, 0, 0, 4, 9, 15, 11], "t₈ row");
        assert_eq!(
            f.cal.warned_total(),
            0,
            "all flags lowered at the end of Z₂"
        );

        assert_eq!(
            moment_rows(evs),
            vec![
                vec![17, 2, 0, 0, 9, 9, 15, 11], // t₅
                vec![4, 15, 0, 0, 9, 9, 15, 11], // t₆ (13 records, page 1 → 2)
                vec![15, 4, 0, 0, 9, 9, 15, 11], // t₇ (11 records, page 2 → 1)
                vec![15, 9, 0, 0, 4, 9, 15, 11], // t₈ (5 records, page 5 → 2)
            ]
        );
    }

    #[test]
    fn z1_activates_l8_and_v3_with_paper_dest_pointers() {
        let mut f = example_file();
        let evs = captured(&mut f, |f| {
            f.insert(7500, ()).unwrap();
        });
        let activated: Vec<(u64, u64)> = evs
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Activate { node, dest, .. } => Some((*node, *dest)),
                _ => None,
            })
            .collect();
        // Shallowest first: v3 (heap 3) with DEST = A⁻(root) = slot 0
        // (page 1), then L8 (heap 15) with DEST = A⁻(v7) = slot 6 (page 7).
        assert_eq!(activated, vec![(3, 0), (15, 6)]);
        // No roll-back fires during Z₁.
        assert!(!evs
            .iter()
            .any(|e| matches!(e, FlightEvent::Rollback { .. })));
    }

    #[test]
    fn z2_rollback_rule_1_resets_dest_v3_to_page_1() {
        let mut f = example_file();
        f.insert(7500, ()).unwrap(); // Z₁ leaves DEST(v3) = slot 1 (page 2)
        assert_eq!(f.cal.dest(NodeId(3)), 1);
        let evs = captured(&mut f, |f| {
            f.insert(500, ()).unwrap(); // Z₂
        });
        let rolled: Vec<(u64, u64)> = evs
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Rollback { node, new_dest, .. } => Some((*node, *new_dest)),
                _ => None,
            })
            .collect();
        // ACTIVATE(L1): DIR(v3)=1 and DEST(v3)=1 ∈ [A⁻(v4)+1, A⁺(v4)] = [1,1]
        // → roll back to A⁻(v4) = 0 (page 1).
        assert_eq!(rolled, vec![(3, 0)]);
    }

    #[test]
    fn z1_shift_sequence_matches_the_paper() {
        let mut f = example_file();
        let evs = captured(&mut f, |f| {
            f.insert(7500, ()).unwrap();
        });
        let shifts: Vec<(u64, u64, u64, u64, Option<u64>)> = evs
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Shift {
                    node,
                    source,
                    dest,
                    moved,
                    new_dest,
                    ..
                } => Some((*node, *source, *dest, *moved, *new_dest)),
                _ => None,
            })
            .collect();
        assert_eq!(
            shifts,
            vec![
                // SHIFT(L8): source page 8 (slot 7), dest page 7 (slot 6),
                // 6 records, DEST advances past L7 to slot 7.
                (15, 7, 6, 6, Some(7)),
                // SHIFT(v3): source page 2, dest page 1, 0 records (L1 was
                // already ≥ g(L1,0)), DEST advances to page 2 (slot 1).
                (3, 1, 0, 0, Some(1)),
                // SHIFT(v3): source page 4 (slot 3), dest page 2 (slot 1),
                // 1 record moves and empties the source; nothing saturates,
                // so DEST stays.
                (3, 3, 1, 1, None),
            ]
        );
    }

    #[test]
    fn z2_shift_quantities_match_the_paper() {
        let mut f = example_file();
        f.insert(7500, ()).unwrap();
        let evs = captured(&mut f, |f| {
            f.insert(500, ()).unwrap();
        });
        let shifts: Vec<(u64, u64, u64, u64)> = evs
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Shift {
                    node,
                    source,
                    dest,
                    moved,
                    ..
                } => Some((*node, *source, *dest, *moved)),
                _ => None,
            })
            .collect();
        assert_eq!(
            shifts,
            vec![
                (8, 0, 1, 13), // SHIFT(L1): 13 records page 1 → 2
                (3, 1, 0, 11), // SHIFT(v3): 11 records page 2 → 1
                (3, 4, 1, 5),  // SHIFT(v3): 5 records page 5 → 2
            ]
        );
    }

    #[test]
    fn flags_lower_in_step_4c_as_densities_fall() {
        let mut f = example_file();
        let evs = captured(&mut f, |f| {
            f.insert(7500, ()).unwrap();
        });
        let lowered: Vec<u64> = evs
            .iter()
            .filter_map(|e| match e {
                FlightEvent::FlagLowered { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        // Z₁: L8 (heap 15) drops after its shift; v3 stays warned through t₄.
        assert_eq!(lowered, vec![15]);
        assert!(f.cal.is_warned(NodeId(3)));
        assert!(!f.cal.is_warned(NodeId(15)));
    }

    #[test]
    fn command_kinds_are_traced() {
        let mut f = example_file();
        let evs = captured(&mut f, |f| {
            f.insert(7500, ()).unwrap();
            f.remove(&7500);
        });
        let kinds: Vec<CommandKind> = evs
            .iter()
            .filter_map(|e| match e {
                FlightEvent::CommandBegin { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![CommandKind::Insert, CommandKind::Delete]);
    }

    /// A capture holds exactly the commands begun on its own thread: while
    /// it records Z₁, a second thread runs commands on its own CONTROL 2
    /// file into the same ring, and none of their frames reach the log.
    #[test]
    fn capture_holds_exactly_z1_while_another_thread_records() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        use std::sync::Arc;

        // Z₁ alone, for comparison.
        let (_, solo) = dsf_flight::capture(|| example_file().insert(7500, ()).unwrap());

        let stop = Arc::new(AtomicBool::new(false));
        // Commands the other thread finished with the recorder on.
        let seen_on = Arc::new(AtomicU64::new(0));
        let other = {
            let (stop, seen_on) = (Arc::clone(&stop), Arc::clone(&seen_on));
            std::thread::spawn(move || {
                let cfg = DenseFileConfig::control2(64, 8, 40);
                let mut g: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();
                let mut k = 0u64;
                while !stop.load(Relaxed) {
                    k += 1;
                    g.insert(k, ()).unwrap();
                    g.remove(&k).unwrap();
                    if dsf_flight::enabled() {
                        seen_on.fetch_add(1, Relaxed);
                    }
                }
            })
        };
        let wait_for = |n: u64| {
            while seen_on.load(Relaxed) < n {
                assert!(!other.is_finished(), "the other thread stopped");
                std::thread::yield_now();
            }
        };
        let mut f = example_file();
        let (_, log) = dsf_flight::capture(|| {
            // Counts from other tests' captures may land late, so only
            // the second and third increments past `base` are sure to be
            // checks made inside this capture; the command between them
            // ran wholly inside it.
            let base = seen_on.load(Relaxed);
            wait_for(base + 1);
            f.insert(7500, ()).unwrap();
            wait_for(base + 3);
        });
        stop.store(true, Relaxed);
        other.join().unwrap();

        // The other thread's frames reached the ring, not the log.
        assert!(log.total > log.events.len() as u64, "{}", log.total);
        let z1 = log.events[0].seq();
        assert!(log.events.iter().all(|e| e.seq() == z1));
        assert_eq!(log.events.len(), solo.events.len());
        // And the log holds all of Z₁: its replay equals the solo run's
        // but for the seq and the wall time.
        let strip = |log: &dsf_flight::FlightLog| {
            let mut cmds = log.replay().commands;
            for c in &mut cmds {
                (c.seq, c.nanos) = (0, 0);
            }
            cmds
        };
        assert_eq!(strip(&log), strip(&solo));
        assert_eq!(strip(&log).len(), 1);
        assert_eq!(strip(&log)[0].moments.len(), 4, "rows t₁..t₄");
    }

    /// Roll-back rule 1 in isolation: a warned right-son ancestor-child y
    /// with DEST inside [A⁻(f_w)+1, A⁺(f_w)] is reset to A⁻(f_w).
    #[test]
    fn rollback_rule_1_boundaries() {
        let mut f = example_file();
        let v3 = NodeId(3); // right son of the root, RANGE = slots 4-7
        f.cal.set_warning(v3, true);
        // f_w for w = L1/L2 is v4 = NodeId(4); RANGE(v4) = slots 0-1.

        // DEST(v3) inside (A⁻(v4), A⁺(v4)] = (0, 1] → rolls back to 0.
        f.cal.set_dest(v3, 1);
        f.activate(NodeId(8)); // w = L1, f_w = v4
        assert_eq!(f.cal.dest(v3), 0, "rule 1 must fire");
        assert_eq!(f.stats.rollbacks, 1);
        f.cal.set_warning(NodeId(8), false);

        // DEST(v3) exactly at A⁻(v4) = 0 → outside the rule's interval.
        f.cal.set_dest(v3, 0);
        f.activate(NodeId(9)); // w = L2, f_w = v4 again
        assert_eq!(f.cal.dest(v3), 0, "rule 1 must not fire at the left edge");
        assert_eq!(f.stats.rollbacks, 1);
        f.cal.set_warning(NodeId(9), false);

        // DEST(v3) beyond A⁺(f_w) → untouched.
        f.cal.set_dest(v3, 3);
        f.activate(NodeId(8));
        assert_eq!(f.cal.dest(v3), 3);
        assert_eq!(f.stats.rollbacks, 1);
    }

    /// Roll-back rule 0 in isolation: a warned left-son y with DEST inside
    /// [A⁻(f_w), A⁺(f_w)−1] is reset to A⁺(f_w).
    #[test]
    fn rollback_rule_0_boundaries() {
        let mut f = example_file();
        let v2 = NodeId(2); // left son of the root, RANGE = slots 0-3
        f.cal.set_warning(v2, true);
        // f_w for w = L7/L8 is v7 = NodeId(7); RANGE(v7) = slots 6-7.

        // DEST(v2) inside [A⁻(v7), A⁺(v7)−1] = [6, 6] → rolls back to 7.
        f.cal.set_dest(v2, 6);
        f.activate(NodeId(15)); // w = L8, f_w = v7
        assert_eq!(f.cal.dest(v2), 7, "rule 0 must fire");
        assert_eq!(f.stats.rollbacks, 1);
        f.cal.set_warning(NodeId(15), false);

        // DEST(v2) exactly at A⁺(v7) = 7 → outside the rule's interval.
        f.cal.set_dest(v2, 7);
        f.activate(NodeId(14)); // w = L7
        assert_eq!(f.cal.dest(v2), 7, "rule 0 must not fire at the right edge");
        assert_eq!(f.stats.rollbacks, 1);
        f.cal.set_warning(NodeId(14), false);

        // Siblings (f_y == f_w) are never rolled back: activate L7 while
        // its sibling L8 is warned with DEST in range.
        f.cal.set_warning(NodeId(15), true);
        f.cal.set_dest(NodeId(15), 6);
        f.activate(NodeId(14));
        assert_eq!(f.cal.dest(NodeId(15)), 6, "siblings share f and are exempt");
    }

    /// The ablation knob really disables the rules.
    #[test]
    fn rollback_can_be_disabled() {
        use crate::config::AblationTweaks;
        let cfg = DenseFileConfig::control2(8, 9, 18)
            .with_j(3)
            .with_macro_blocking(MacroBlocking::Disabled)
            .with_tweaks(AblationTweaks {
                disable_rollback: true,
                ..Default::default()
            });
        let mut f: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();
        let counts = [16usize, 1, 0, 1, 9, 9, 9, 16];
        let layout: Vec<Vec<(u64, ())>> = counts
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                (0..n)
                    .map(|i| (s as u64 * 1000 + i as u64 + 1, ()))
                    .collect()
            })
            .collect();
        f.bulk_load_per_slot(layout).unwrap();
        f.insert(7500, ()).unwrap();
        f.insert(500, ()).unwrap();
        assert_eq!(f.stats.rollbacks, 0);
    }

    #[test]
    fn deletions_lower_flags_but_never_activate() {
        let mut f = example_file();
        f.insert(7500, ()).unwrap(); // leaves v3 warned
        assert!(f.cal.is_warned(NodeId(3)));
        let before = f.stats.activations;
        // Delete records from v3's range until its density drops below g(v3,1/3)=10.
        // p(v3) = 44/4 = 11 after Z₁... the t₄ state has slots 4..8 = 9,9,15,11 = 44.
        for k in [4001u64, 4002, 4003, 4004, 4005] {
            f.remove(&k).unwrap();
        }
        assert_eq!(f.stats.activations, before, "deletes never activate");
        // Deletions (plus the shifts they trigger, which only drain v3's
        // range further) push p(v3) under g(v3,1/3) = 10 → flag lowered.
        assert!(!f.cal.is_warned(NodeId(3)));
    }

    /// SHIFT into an empty DEST whose path holds placeholders left by
    /// earlier contents: slot 8's leaf and father hold SOURCE's minimum,
    /// its grandfather another key. The counts decide which minima are
    /// real, so SHIFT must finish SOURCE's update before DEST's count rises;
    /// updating both counts first lets SOURCE's climb read the grandfather's
    /// placeholder as real, and DEST's climb then stops at the father,
    /// whose placeholder already equals the new minimum.
    #[test]
    fn shift_into_an_empty_dest_over_placeholders_keeps_every_minimum() {
        let cfg = DenseFileConfig::control2(16, 9, 18).with_macro_blocking(MacroBlocking::Disabled);
        let mut f: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();
        // Two records in each of slots 0–7, four in slot 15, none between.
        let layout = (0..16u64)
            .map(|s| {
                let n = match s {
                    0..=7 => 2,
                    15 => 4,
                    _ => 0,
                };
                (0..n).map(|i| (s * 1000 + i + 1, ())).collect()
            })
            .collect();
        f.bulk_load_per_slot(layout).unwrap();
        assert_eq!(f.cal.warned_total(), 0);
        for (slot, key) in [(8, 15_001), (10, 10_001)] {
            f.cal.update_slot(slot, 1, Some(key));
            f.cal.update_slot(slot, -1, None);
        }
        // The right son over slots 12–15, aimed at its father's far end.
        let v = NodeId(7);
        f.cal.set_warning(v, true);
        f.cal.set_dest(v, 8);
        let out = f.shift(v);
        assert_eq!((out.source, out.dest, out.moved), (Some(15), 8, 4));
        for n in f.cal.all_nodes() {
            let (lo, hi) = f.cal.range(n);
            let count: u64 = (lo..=hi).map(|s| f.store.len(s) as u64).sum();
            let min = (lo..=hi).filter_map(|s| f.store.min_key(s)).min();
            assert_eq!((f.cal.count(n), f.cal.min_key(n)), (count, min), "{n:?}");
        }
        assert_eq!(f.cal.min_key(NodeId(6)), Some(15_001));
    }
}
