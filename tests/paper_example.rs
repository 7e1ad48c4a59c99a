//! Example 5.2 of the paper, reproduced end-to-end through the public API:
//! Figure 4's table of per-page record counts at the flag-stable moments
//! t₀…t₈, for the 8-page file with d=9, D=18, J=3 and the two insertion
//! commands Z₁ (into page 8) and Z₂ (into page 1).
//!
//! These same rows are printed by `cargo run -p dsf-bench --bin fig4_example`.

use willard_dsf::flight::{self, FlightEvent, Moment};
use willard_dsf::{DenseFile, DenseFileConfig, MacroBlocking};

/// The paper's Figure 4, rows t₀…t₈ (1-based pages L₁…L₈, left to right).
pub const FIGURE_4: [[u64; 8]; 9] = [
    [16, 1, 0, 1, 9, 9, 9, 16],  // t0
    [16, 1, 0, 1, 9, 9, 9, 17],  // t1
    [16, 1, 0, 1, 9, 9, 15, 11], // t2
    [16, 1, 0, 1, 9, 9, 15, 11], // t3
    [16, 2, 0, 0, 9, 9, 15, 11], // t4
    [17, 2, 0, 0, 9, 9, 15, 11], // t5
    [4, 15, 0, 0, 9, 9, 15, 11], // t6
    [15, 4, 0, 0, 9, 9, 15, 11], // t7
    [15, 9, 0, 0, 4, 9, 15, 11], // t8
];

/// Builds the example file at its t₀ state. Keys are chosen so that page
/// `j` (1-based) holds keys in `(j−1)·1000 … j·1000`.
pub fn example_file() -> DenseFile<u64, ()> {
    let cfg = DenseFileConfig::control2(8, 9, 18)
        .with_j(3)
        .with_macro_blocking(MacroBlocking::Disabled);
    let mut f = DenseFile::new(cfg).unwrap();
    let layout: Vec<Vec<(u64, ())>> = FIGURE_4[0]
        .iter()
        .enumerate()
        .map(|(s, &n)| (0..n).map(|i| (s as u64 * 1000 + i + 1, ())).collect())
        .collect();
    f.bulk_load_per_slot(layout).unwrap();
    f
}

#[test]
fn figure_4_cell_for_cell() {
    let mut f = example_file();
    assert_eq!(f.slot_counts(), FIGURE_4[0], "t0");

    let ((), log) = flight::capture(|| {
        // Z₁: insert into page 8 — any key above page 8's current keys.
        f.insert(7_500, ()).unwrap();
        // Z₂: insert into page 1 — any key below page 1's keys... the paper
        // inserts *into page 1*; key 500 sits between page 1's existing keys
        // (1..=16) and page 2's (1001), hence lands on page 1.
        f.insert(500, ()).unwrap();
    });

    let mut rows: Vec<Vec<u64>> = vec![FIGURE_4[0].to_vec()];
    for ev in log.events {
        if let FlightEvent::Moment { counts, .. } = ev {
            rows.push(counts);
        }
    }
    assert_eq!(rows.len(), 9, "t0 plus eight flag-stable moments t1..t8");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.as_slice(), FIGURE_4[i].as_slice(), "row t{i}");
    }
}

#[test]
fn moments_alternate_step3_then_three_step4c_per_command() {
    let mut f = example_file();
    let ((), log) = flight::capture(|| {
        f.insert(7_500, ()).unwrap();
        f.insert(500, ()).unwrap();
    });
    let moments: Vec<Moment> = log
        .events
        .into_iter()
        .filter_map(|e| match e {
            FlightEvent::Moment { moment, .. } => Some(moment),
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
            AfterStep4c, // Z₁ (J=3)
            AfterStep3,
            AfterStep4c,
            AfterStep4c,
            AfterStep4c, // Z₂ (J=3)
        ]
    );
}

#[test]
fn example_state_is_balanced_throughout() {
    let mut f = example_file();
    f.check_invariants().unwrap();
    f.insert(7_500, ()).unwrap();
    f.check_invariants().unwrap();
    f.insert(500, ()).unwrap();
    f.check_invariants().unwrap();
    assert_eq!(f.len(), 63);
    // Figure 1's calibrator displays densities; confirm the final root
    // density matches the row sum.
    let total: u64 = FIGURE_4[8].iter().sum();
    assert_eq!(f.len(), total);
}

/// Figure 1 of the paper: a 4-page file holding [3,2,1,2] records with
/// d=2, D=3 satisfies BALANCE(2,3); its calibrator densities are the node
/// averages shown in Figure 1b.
#[test]
fn figure_1_calibrator_densities() {
    let cfg = DenseFileConfig::control2(4, 2, 3)
        .with_j(1)
        .with_macro_blocking(MacroBlocking::Disabled);
    let mut f: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();
    let layout: Vec<Vec<(u64, ())>> = [3u64, 2, 1, 2]
        .iter()
        .enumerate()
        .map(|(s, &n)| (0..n).map(|i| (s as u64 * 100 + i, ())).collect())
        .collect();
    f.bulk_load_per_slot(layout).unwrap();
    f.check_invariants().unwrap();
    let cal = f.calibrator();
    use willard_dsf::core_::NodeId;
    // Figure 1b's node densities: root 2.0, left son 2.5, right son 1.5,
    // leaves 3, 2, 1, 2.
    assert_eq!(cal.p_display(NodeId(1)), 2.0);
    assert_eq!(cal.p_display(NodeId(2)), 2.5);
    assert_eq!(cal.p_display(NodeId(3)), 1.5);
    for (slot, want) in [3.0, 2.0, 1.0, 2.0].iter().enumerate() {
        assert_eq!(cal.p_display(cal.leaf_of(slot as u32)), *want);
    }
}
