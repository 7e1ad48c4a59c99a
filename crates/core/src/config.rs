//! Configuration of a dense sequential file.
//!
//! The user-facing [`DenseFileConfig`] speaks the paper's vocabulary — `M`
//! physical pages, densities `d < D`, the shift budget `J` — and is resolved
//! into a [`ResolvedConfig`] that also fixes the macro-block factor `K`
//! (Theorem 5.7) and the calibrator depth `L = ⌈log₂ M⌉`.

/// Which maintenance algorithm drives the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's §3 algorithm: one-shot redistribution of the highest
    /// unbalanced subtree. Amortized `O(log²M/(D−d))` page accesses per
    /// command, but individual commands may cost `O(M)`.
    Control1,
    /// The paper's §4 algorithm: evolutionary record shifting bounded by
    /// `J` SHIFT operations per command — worst-case `O(log²M/(D−d))`.
    Control2,
}

/// Macro-block policy (paper §5, Theorem 5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacroBlocking {
    /// Apply the paper's rule: if `D−d ≤ 3⌈log₂M⌉`, group `K` pages per
    /// block with `K` the least integer satisfying `K(D−d) > 3⌈log₂M⌉`
    /// (eq. 5.3); otherwise `K = 1`.
    Auto,
    /// Never group pages (`K = 1`), even when the paper's simplifying
    /// assumption `D−d > 3⌈log₂M⌉` fails. The worst-case guarantee is then
    /// void — useful only for the ablation experiments.
    Disabled,
    /// Use exactly this `K` (must be ≥ 1).
    Force(u32),
}

/// Knobs that deliberately *break* parts of CONTROL 2, for the ablation
/// experiment (EXPERIMENTS.md, E8). All off in normal operation; each one
/// removes a design element the paper argues is necessary, so that its
/// effect (thrashing, balance violations, cost spikes) can be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AblationTweaks {
    /// Skip ACTIVATE's roll-back rules — the paper's anti-thrashing device
    /// for overlapping DEST traversals.
    pub disable_rollback: bool,
    /// Collapse the warning hysteresis: lower flags already at `g(·,⅔)`
    /// instead of `g(·,⅓)`, so flags flap and shifts lose their aim.
    pub narrow_hysteresis: bool,
    /// Make SELECT return the *shallowest* warned descendant instead of the
    /// deepest, inverting the paper's prioritization.
    pub select_shallowest: bool,
}

impl AblationTweaks {
    /// Whether any knob is set.
    pub fn any(&self) -> bool {
        self.disable_rollback || self.narrow_hysteresis || self.select_shallowest
    }
}

/// User-facing configuration of a [`crate::DenseFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseFileConfig {
    /// Number of physical pages `M` the file occupies. When macro-blocking
    /// applies, the actual allocation is rounded up to a multiple of `K`.
    pub pages: u32,
    /// Lower density `d`: the file holds at most `N = d·M` records.
    pub min_density: u32,
    /// Upper density `D`: no physical page ever holds more than `D` records
    /// at the end of a command.
    pub max_density: u32,
    /// Number of SHIFT operations per command (CONTROL 2's `J`).
    /// `None` selects [`DenseFileConfig::recommended_j`].
    pub j: Option<u32>,
    /// Maintenance algorithm.
    pub algorithm: Algorithm,
    /// Macro-block policy.
    pub macro_blocking: MacroBlocking,
    /// Ablation knobs (experiments only; default all-off).
    pub tweaks: AblationTweaks,
}

impl DenseFileConfig {
    /// A CONTROL 2 configuration with automatic `J` and macro-blocking.
    pub fn control2(pages: u32, min_density: u32, max_density: u32) -> Self {
        DenseFileConfig {
            pages,
            min_density,
            max_density,
            j: None,
            algorithm: Algorithm::Control2,
            macro_blocking: MacroBlocking::Auto,
            tweaks: AblationTweaks::default(),
        }
    }

    /// A CONTROL 1 configuration (amortized baseline).
    pub fn control1(pages: u32, min_density: u32, max_density: u32) -> Self {
        DenseFileConfig {
            algorithm: Algorithm::Control1,
            ..Self::control2(pages, min_density, max_density)
        }
    }

    /// Overrides the shift budget `J`.
    pub fn with_j(mut self, j: u32) -> Self {
        self.j = Some(j);
        self
    }

    /// Overrides the macro-block policy.
    pub fn with_macro_blocking(mut self, mb: MacroBlocking) -> Self {
        self.macro_blocking = mb;
        self
    }

    /// Sets ablation knobs (experiments only).
    pub fn with_tweaks(mut self, tweaks: AblationTweaks) -> Self {
        self.tweaks = tweaks;
        self
    }

    /// The default shift budget for a file of `slots` logical pages with
    /// per-slot density gap `gap = D#−d#`.
    ///
    /// The paper proves `J ≅ 90⌈log²M⌉/(D−d)` sufficient and immediately
    /// notes that a sharper proof reduces the constant "by at least one
    /// order of magnitude (and probably by 1½ magnitudes)", with `J ≈ 18`
    /// typical. We default to a constant of 12 — comfortably above every
    /// empirical minimum found by the `exp_j_sweep` experiment (which probes
    /// adversarial workloads across `M` and `D−d`) while staying within the
    /// paper's `O(log²M/(D−d))` budget.
    pub fn recommended_j(slots: u32, gap: u64) -> u32 {
        let l = ceil_log2(slots).max(1) as u64;
        let j = (12 * l * l).div_ceil(gap.max(1));
        j.clamp(4, u64::from(u32::MAX)) as u32
    }

    /// Validates and resolves the configuration.
    pub fn resolve(self) -> Result<ResolvedConfig, ConfigError> {
        if self.pages == 0 {
            return Err(ConfigError::ZeroPages);
        }
        if self.min_density == 0 {
            return Err(ConfigError::ZeroMinDensity);
        }
        if self.min_density >= self.max_density {
            return Err(ConfigError::DensityOrder {
                d: self.min_density,
                big_d: self.max_density,
            });
        }
        if self.j == Some(0) {
            return Err(ConfigError::ZeroJ);
        }

        let l_phys = ceil_log2(self.pages).max(1);
        let gap = u64::from(self.max_density - self.min_density);
        let k = match self.macro_blocking {
            MacroBlocking::Disabled => 1,
            MacroBlocking::Force(0) => return Err(ConfigError::ZeroK),
            MacroBlocking::Force(k) => k,
            MacroBlocking::Auto => {
                // Least K with K(D−d) > 3⌈log₂M⌉ (paper eq. 5.3).
                let need = u64::from(3 * l_phys) + 1;
                need.div_ceil(gap).max(1) as u32
            }
        };
        let slots = self.pages.div_ceil(k);
        let physical_pages = u64::from(slots) * u64::from(k);
        let slot_min = u64::from(self.min_density) * u64::from(k);
        let slot_max = u64::from(self.max_density) * u64::from(k);
        let log_slots = ceil_log2(slots).max(1);
        let slot_gap = slot_max - slot_min;
        let j = match self.j {
            Some(j) => j,
            None => Self::recommended_j(slots, slot_gap),
        };
        Ok(ResolvedConfig {
            algorithm: self.algorithm,
            requested_pages: self.pages,
            physical_pages,
            slots,
            k,
            page_capacity: self.max_density,
            slot_min,
            slot_max,
            log_slots,
            j,
            meets_gap_assumption: slot_gap > u64::from(3 * log_slots) && !self.tweaks.any(),
            tweaks: self.tweaks,
        })
    }
}

/// Fully-resolved parameters of a dense sequential file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedConfig {
    /// Maintenance algorithm.
    pub algorithm: Algorithm,
    /// The `M` the caller asked for.
    pub requested_pages: u32,
    /// Physical pages actually allocated (`slots × k ≥ requested_pages`).
    pub physical_pages: u64,
    /// Logical pages / macro-blocks: the calibrator's `M`.
    pub slots: u32,
    /// Pages per macro-block (`K`; 1 in the base regime).
    pub k: u32,
    /// Records per physical page (the user's `D`).
    pub page_capacity: u32,
    /// Per-slot lower density `d# = K·d`.
    pub slot_min: u64,
    /// Per-slot upper density `D# = K·D`.
    pub slot_max: u64,
    /// Calibrator depth bound `L = max(1, ⌈log₂ slots⌉)`.
    pub log_slots: u32,
    /// SHIFT operations per command.
    pub j: u32,
    /// Whether Theorem 5.5's preconditions hold: the density-gap assumption
    /// `D#−d# > 3L` *and* no ablation tweak is active. `false` (possible
    /// only with `MacroBlocking::Disabled`, a forced `K`, or ablation
    /// tweaks) voids the worst-case guarantee and relaxes the Fact 5.1(b)
    /// invariant check accordingly.
    pub meets_gap_assumption: bool,
    /// Ablation knobs carried through from the configuration.
    pub tweaks: AblationTweaks,
}

impl ResolvedConfig {
    /// Maximum number of records the file may hold (`N = d#·M#`).
    pub fn capacity(&self) -> u64 {
        self.slot_min * u64::from(self.slots)
    }

    /// The page-bound audit budget a flight log of this file carries.
    pub fn flight_budget(&self) -> dsf_flight::BoundBudget {
        dsf_flight::BoundBudget {
            j: u64::from(self.j),
            k: u64::from(self.k),
            log_slots: u64::from(self.log_slots),
            gap: self.slot_max - self.slot_min,
        }
    }
}

/// Configuration errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `pages` was zero.
    ZeroPages,
    /// `min_density` was zero (the file could hold no records).
    ZeroMinDensity,
    /// `min_density ≥ max_density`; the paper requires `d < D`.
    DensityOrder {
        /// The offending `d`.
        d: u32,
        /// The offending `D`.
        big_d: u32,
    },
    /// An explicit `J` of zero.
    ZeroJ,
    /// `MacroBlocking::Force(0)`.
    ZeroK,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPages => write!(f, "`pages` must be non-zero"),
            ConfigError::ZeroMinDensity => write!(f, "`min_density` must be non-zero"),
            ConfigError::DensityOrder { d, big_d } => {
                write!(f, "densities must satisfy d < D, got d={d}, D={big_d}")
            }
            ConfigError::ZeroJ => write!(f, "`j` must be non-zero"),
            ConfigError::ZeroK => write!(f, "forced macro-block factor K must be non-zero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// `⌈log₂ m⌉` (0 for `m ≤ 1`).
pub fn ceil_log2(m: u32) -> u32 {
    if m <= 1 {
        0
    } else {
        32 - (m - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert_eq!(
            DenseFileConfig::control2(0, 1, 2).resolve(),
            Err(ConfigError::ZeroPages)
        );
        assert_eq!(
            DenseFileConfig::control2(8, 0, 2).resolve(),
            Err(ConfigError::ZeroMinDensity)
        );
        assert_eq!(
            DenseFileConfig::control2(8, 5, 5).resolve(),
            Err(ConfigError::DensityOrder { d: 5, big_d: 5 })
        );
        assert_eq!(
            DenseFileConfig::control2(8, 6, 5).resolve(),
            Err(ConfigError::DensityOrder { d: 6, big_d: 5 })
        );
        assert_eq!(
            DenseFileConfig::control2(8, 1, 2).with_j(0).resolve(),
            Err(ConfigError::ZeroJ)
        );
        assert_eq!(
            DenseFileConfig::control2(8, 1, 2)
                .with_macro_blocking(MacroBlocking::Force(0))
                .resolve(),
            Err(ConfigError::ZeroK)
        );
    }

    #[test]
    fn paper_example_resolves_without_blocking() {
        // Example 5.2: M=8, d=9, D=18 → D−d=9 = 3⌈log 8⌉... the paper runs
        // the example with K=1 regardless; note 9 > 3·3 is false (9 ≤ 9), so
        // Auto would block. The example harness forces K=1 as the paper does.
        let r = DenseFileConfig::control2(8, 9, 18)
            .with_j(3)
            .with_macro_blocking(MacroBlocking::Disabled)
            .resolve()
            .unwrap();
        assert_eq!(r.slots, 8);
        assert_eq!(r.k, 1);
        assert_eq!(r.slot_min, 9);
        assert_eq!(r.slot_max, 18);
        assert_eq!(r.log_slots, 3);
        assert_eq!(r.j, 3);
        assert_eq!(r.capacity(), 72);
        assert!(!r.meets_gap_assumption); // 9 > 9 fails — boundary case
    }

    #[test]
    fn auto_blocking_kicks_in_for_small_gaps() {
        // M=1024 → L=10, D−d=2 ≤ 30 → K = least with 2K > 30 → 16.
        let r = DenseFileConfig::control2(1024, 6, 8).resolve().unwrap();
        assert_eq!(r.k, 16);
        assert_eq!(r.slots, 64);
        assert_eq!(r.slot_min, 96);
        assert_eq!(r.slot_max, 128);
        assert!(r.meets_gap_assumption); // 32 > 3·⌈log 64⌉ = 18
        assert_eq!(r.physical_pages, 1024);
    }

    #[test]
    fn auto_blocking_stays_at_one_for_wide_gaps() {
        let r = DenseFileConfig::control2(1024, 8, 64).resolve().unwrap();
        assert_eq!(r.k, 1);
        assert_eq!(r.slots, 1024);
        assert!(r.meets_gap_assumption); // 56 > 30
    }

    #[test]
    fn pages_round_up_to_a_multiple_of_k() {
        let r = DenseFileConfig::control2(1000, 6, 8).resolve().unwrap();
        assert_eq!(r.k, 16);
        assert_eq!(r.slots, 63);
        assert_eq!(r.physical_pages, 1008);
        assert!(r.physical_pages >= 1000);
        assert!(r.physical_pages < 1000 + u64::from(r.k));
    }

    #[test]
    fn recommended_j_follows_the_paper_shape() {
        // J grows with log²M and shrinks with the density gap.
        let j_small = DenseFileConfig::recommended_j(1 << 8, 30);
        let j_big = DenseFileConfig::recommended_j(1 << 16, 30);
        assert!(j_big > j_small);
        let j_wide = DenseFileConfig::recommended_j(1 << 16, 120);
        assert!(j_wide < j_big);
        assert!(DenseFileConfig::recommended_j(2, 1000) >= 4); // clamped floor
    }

    #[test]
    fn capacity_matches_d_times_requested_pages_when_unblocked() {
        let r = DenseFileConfig::control2(256, 10, 50).resolve().unwrap();
        assert_eq!(r.capacity(), 2560);
    }
}
