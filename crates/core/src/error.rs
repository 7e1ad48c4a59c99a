//! Error types of the dense sequential file.

pub use crate::config::ConfigError;

/// Errors returned by [`crate::DenseFile`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsfError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// Inserting would exceed the file's capacity `N = d·M`. The paper's
    /// algorithms are defined only for files whose "cardinality never
    /// exceeds N = dM" (Theorem 5.5); the caller must rebuild into a larger
    /// file (see `DenseFile::rebuild_into`).
    CapacityExceeded {
        /// The fixed capacity `N = d#·M#`.
        capacity: u64,
    },
    /// A bulk load was rejected.
    BulkLoad(BulkLoadError),
}

/// Reasons a bulk load is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkLoadError {
    /// The file already contains records.
    NotEmpty,
    /// Input keys were not strictly ascending.
    NotSorted {
        /// Index (in input order) of the offending record.
        index: usize,
    },
    /// More records than the capacity `N = d#·M#`.
    TooMany {
        /// Number of records supplied.
        records: u64,
        /// The file capacity.
        capacity: u64,
    },
    /// The input's exact [`size_hint`](Iterator::size_hint) promised a
    /// length it did not keep; bulk loads trust that length to size their
    /// spread, so the load is refused rather than laid out wrongly.
    LengthMismatch {
        /// The length the hint promised.
        hinted: u64,
        /// Records drawn before the mismatch showed: the whole input when it
        /// ran short, `hinted + 1` when it ran long (no more is drawn).
        yielded: u64,
    },
    /// A per-slot layout had the wrong number of slots.
    LayoutWidth {
        /// Slots supplied.
        got: usize,
        /// Slots expected.
        expected: u32,
    },
    /// A per-slot layout put more records in a slot than its density bound
    /// `D#` allows.
    SlotOverflow {
        /// The offending slot.
        slot: u32,
        /// Records supplied for it.
        len: usize,
        /// The bound `D#`.
        max: u64,
    },
    /// A per-slot layout violates the paper's BALANCE(d,D) precondition:
    /// Theorem 5.5 requires an initial state every node of which satisfies
    /// `p(v) ≤ g(v,1)`.
    Unbalanced {
        /// Heap index of the offending calibrator node.
        node: u32,
    },
}

impl From<ConfigError> for DsfError {
    fn from(e: ConfigError) -> Self {
        DsfError::Config(e)
    }
}

impl From<BulkLoadError> for DsfError {
    fn from(e: BulkLoadError) -> Self {
        DsfError::BulkLoad(e)
    }
}

impl std::fmt::Display for DsfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsfError::Config(e) => write!(f, "invalid configuration: {e}"),
            DsfError::CapacityExceeded { capacity } => {
                write!(f, "file is at its capacity of N = d·M = {capacity} records")
            }
            DsfError::BulkLoad(e) => write!(f, "bulk load rejected: {e}"),
        }
    }
}

impl std::fmt::Display for BulkLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkLoadError::NotEmpty => write!(f, "file already contains records"),
            BulkLoadError::NotSorted { index } => {
                write!(
                    f,
                    "keys must be strictly ascending (violated at input index {index})"
                )
            }
            BulkLoadError::TooMany { records, capacity } => {
                write!(
                    f,
                    "{records} records exceed the file capacity of {capacity}"
                )
            }
            BulkLoadError::LengthMismatch { hinted, yielded } => write!(
                f,
                "input's size hint promised exactly {hinted} records, {yielded} were drawn"
            ),
            BulkLoadError::LayoutWidth { got, expected } => {
                write!(f, "layout has {got} slots, file has {expected}")
            }
            BulkLoadError::SlotOverflow { slot, len, max } => {
                write!(f, "slot {slot} given {len} records, density bound is {max}")
            }
            BulkLoadError::Unbalanced { node } => {
                write!(f, "layout violates BALANCE(d,D) at calibrator node {node}")
            }
        }
    }
}

impl std::error::Error for DsfError {}
impl std::error::Error for BulkLoadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = DsfError::CapacityExceeded { capacity: 72 };
        assert!(e.to_string().contains("72"));
        let e = DsfError::BulkLoad(BulkLoadError::NotSorted { index: 3 });
        assert!(e.to_string().contains("index 3"));
        let e: DsfError = ConfigError::ZeroPages.into();
        assert!(matches!(e, DsfError::Config(_)));
        let e: DsfError = BulkLoadError::NotEmpty.into();
        assert!(e.to_string().contains("already contains"));
        let e = BulkLoadError::LengthMismatch {
            hinted: 999,
            yielded: 1000,
        };
        assert!(e
            .to_string()
            .contains("exactly 999 records, 1000 were drawn"));
    }
}
