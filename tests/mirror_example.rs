//! The mirror of Example 5.2: reflect the initial distribution and the two
//! commands left-to-right. Because M = 8 is a power of two, the calibrator
//! is geometrically symmetric, so a faithful implementation must produce
//! the *exact mirror* of every Figure 4 row — this drives every DIR=0 code
//! path (left-son shifts, roll-back rule 0, take-from-back/put-at-front)
//! through the paper's own gauntlet.

use willard_dsf::flight::{self, FlightEvent, Moment};
use willard_dsf::{DenseFile, DenseFileConfig, MacroBlocking};

const FIGURE_4: [[u64; 8]; 9] = [
    [16, 1, 0, 1, 9, 9, 9, 16],
    [16, 1, 0, 1, 9, 9, 9, 17],
    [16, 1, 0, 1, 9, 9, 15, 11],
    [16, 1, 0, 1, 9, 9, 15, 11],
    [16, 2, 0, 0, 9, 9, 15, 11],
    [17, 2, 0, 0, 9, 9, 15, 11],
    [4, 15, 0, 0, 9, 9, 15, 11],
    [15, 4, 0, 0, 9, 9, 15, 11],
    [15, 9, 0, 0, 4, 9, 15, 11],
];

fn mirrored(row: &[u64; 8]) -> Vec<u64> {
    row.iter().rev().copied().collect()
}

#[test]
fn mirrored_example_5_2_reproduces_mirrored_figure_4() {
    let cfg = DenseFileConfig::control2(8, 9, 18)
        .with_j(3)
        .with_macro_blocking(MacroBlocking::Disabled);
    let mut f: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();

    // Mirrored t₀: slot s holds what the paper's slot 7−s held; keys grow
    // with the mirrored slot index so order is preserved.
    let t0 = mirrored(&FIGURE_4[0]);
    let layout: Vec<Vec<(u64, ())>> = t0
        .iter()
        .enumerate()
        .map(|(s, &n)| (0..n).map(|i| (s as u64 * 1000 + i + 1, ())).collect())
        .collect();
    f.bulk_load_per_slot(layout).unwrap();

    let ((), log) = flight::capture(|| {
        // Z₁ mirrored: the paper inserts into page 8 (the dense right end);
        // here the dense end is page 1, so insert a key below page 1's keys.
        f.insert(0, ()).unwrap();
        // Z₂ mirrored: the paper inserts into page 1; here insert into page 8
        // (above its minimum so it lands inside the last slot).
        f.insert(7_500, ()).unwrap();
    });

    let mut rows: Vec<Vec<u64>> = vec![t0];
    for ev in log.events {
        if let FlightEvent::Moment { counts, .. } = ev {
            rows.push(counts);
        }
    }
    assert_eq!(rows.len(), 9, "t0 plus eight flag-stable moments");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row, &mirrored(&FIGURE_4[i]), "mirrored row t{i}");
    }
    assert_eq!(f.calibrator().warned_total(), 0);
    f.check_invariants().unwrap();
}

#[test]
fn mirrored_moments_follow_the_same_rhythm() {
    let cfg = DenseFileConfig::control2(8, 9, 18)
        .with_j(3)
        .with_macro_blocking(MacroBlocking::Disabled);
    let mut f: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();
    let t0 = mirrored(&FIGURE_4[0]);
    let layout: Vec<Vec<(u64, ())>> = t0
        .iter()
        .enumerate()
        .map(|(s, &n)| (0..n).map(|i| (s as u64 * 1000 + i + 1, ())).collect())
        .collect();
    f.bulk_load_per_slot(layout).unwrap();
    let ((), log) = flight::capture(|| {
        f.insert(0, ()).unwrap();
        f.insert(7_500, ()).unwrap();
    });
    let evs = log.events;

    // Exactly one roll-back fires (rule 0, the mirror of the paper's rule-1
    // event), and the per-command moment rhythm matches the original.
    let rollbacks = evs
        .iter()
        .filter(|e| matches!(e, FlightEvent::Rollback { .. }))
        .count();
    assert_eq!(rollbacks, 1);
    let moments: Vec<Moment> = evs
        .iter()
        .filter_map(|e| match e {
            FlightEvent::Moment { moment, .. } => Some(*moment),
            _ => None,
        })
        .collect();
    use Moment::*;
    assert_eq!(
        moments,
        vec![
            AfterStep3,
            AfterStep4c,
            AfterStep4c,
            AfterStep4c,
            AfterStep3,
            AfterStep4c,
            AfterStep4c,
            AfterStep4c,
        ]
    );
    // The mirrored shift quantities are the paper's: 6, 0, 1, 13, 11, 5.
    let moved: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            FlightEvent::Shift { moved, .. } => Some(*moved),
            _ => None,
        })
        .collect();
    assert_eq!(moved, vec![6, 0, 1, 13, 11, 5]);
}
