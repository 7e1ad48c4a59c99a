//! Figures 3 & 4 of the paper — Example 5.2 reproduced exactly.
//!
//! The 8-page file with d=9, D=18, J=3 starts in Figure 4's t₀ state;
//! command Z₁ inserts a record into page 8 and Z₂ into page 1. The program
//! prints the calibration tree (Figure 3), the step-by-step narration of
//! both commands, and the 9-row table of per-page record counts at the
//! flag-stable moments t₀…t₈ (Figure 4), checking every row against the
//! paper's published values.
//!
//! Run: `cargo run -p dsf-bench --bin fig4_example`

use dsf_bench::Table;
use dsf_core::{DenseFile, DenseFileConfig, MacroBlocking};
use dsf_flight::FlightEvent;

/// Figure 4 as published.
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

/// Paper node names for the 8-page calibrator, by heap index.
fn node_name(heap: u64) -> String {
    match heap {
        1..=7 => format!("v{heap}"),
        8..=15 => format!("L{}", heap - 7),
        _ => format!("#{heap}"),
    }
}

fn main() {
    let cfg = DenseFileConfig::control2(8, 9, 18)
        .with_j(3)
        .with_macro_blocking(MacroBlocking::Disabled);
    let mut file: DenseFile<u64, ()> = DenseFile::new(cfg).unwrap();
    let layout: Vec<Vec<(u64, ())>> = FIGURE_4[0]
        .iter()
        .enumerate()
        .map(|(s, &n)| (0..n).map(|i| (s as u64 * 1000 + i + 1, ())).collect())
        .collect();
    file.bulk_load_per_slot(layout).unwrap();

    // Figure 3: the calibration tree.
    let cal = file.calibrator();
    let mut fig3 = Table::new(["node", "depth", "range (pages)", "N_v", "p(v)"]);
    let mut nodes = cal.all_nodes();
    nodes.sort_by_key(|n| (n.depth(), n.0));
    for n in nodes {
        let (lo, hi) = cal.range(n);
        fig3.row([
            node_name(u64::from(n.0)),
            n.depth().to_string(),
            format!("{}-{}", lo + 1, hi + 1),
            cal.count(n).to_string(),
            format!("{:.2}", cal.p_display(n)),
        ]);
    }
    fig3.print("Figure 3 — the calibration tree for the 8-page file (at t0)");

    // Run Z1 and Z2 under a flight capture with moment snapshots on, then
    // narrate its frames.
    let ((), log) = dsf_flight::capture(|| {
        println!("\nZ1: insert a record into page 8");
        file.insert(7_500, ()).unwrap();
        println!("Z2: insert a record into page 1");
        file.insert(500, ()).unwrap();
    });

    let mut rows: Vec<Vec<u64>> = vec![FIGURE_4[0].to_vec()];
    for ev in log.events {
        match ev {
            FlightEvent::Activate { node, dest, .. } => {
                println!(
                    "  ACTIVATE({}) → warning raised, DEST = page {}",
                    node_name(node),
                    dest + 1
                );
            }
            FlightEvent::Rollback { node, new_dest, .. } => {
                println!(
                    "  roll-back: DEST({}) = page {}",
                    node_name(node),
                    new_dest + 1
                );
            }
            FlightEvent::Shift {
                node,
                source,
                dest,
                moved,
                new_dest,
                ..
            } => {
                print!(
                    "  SHIFT({}): moved {moved} record(s) page {} → page {}",
                    node_name(node),
                    source + 1,
                    dest + 1
                );
                match new_dest {
                    Some(nd) => println!(", DEST advances to page {}", nd + 1),
                    None => println!(),
                }
            }
            FlightEvent::FlagLowered { node, .. } => {
                println!("  warning lowered on {}", node_name(node));
            }
            FlightEvent::Moment { counts, .. } => rows.push(counts),
            _ => {}
        }
    }

    let mut fig4 = Table::new([
        "t",
        "L1",
        "L2",
        "L3",
        "L4",
        "L5",
        "L6",
        "L7",
        "L8",
        "matches paper",
    ]);
    let mut all_match = true;
    for (i, row) in rows.iter().enumerate() {
        let ok = row.as_slice() == FIGURE_4[i].as_slice();
        all_match &= ok;
        let mut cells = vec![format!("t{i}")];
        cells.extend(row.iter().map(|c| c.to_string()));
        cells.push(ok.to_string());
        fig4.row(cells);
    }
    fig4.print("Figure 4 — record distribution at the flag-stable moments t0..t8");

    file.check_invariants().unwrap();
    println!(
        "\nAll {} rows match the paper: {}",
        rows.len(),
        if all_match {
            "YES"
        } else {
            "NO — mismatch above!"
        }
    );
    assert!(all_match, "Figure 4 reproduction failed");
}
