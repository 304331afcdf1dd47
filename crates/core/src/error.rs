//! Error type for the temporal partitioner.

use std::error::Error;
use std::fmt;

/// An error raised while partitioning.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// The partition bound `N` is zero.
    ZeroPartitions,
    /// Some task cannot fit the device even with its smallest design point.
    TaskTooLarge {
        /// Name of the offending task.
        task: String,
        /// Its smallest design-point area.
        min_area: u64,
        /// The device capacity `R_max`.
        capacity: u64,
    },
    /// Path enumeration for the latency constraints was truncated; the ILP
    /// model would silently under-constrain latency. Raise the path cap or
    /// use the structured backend (which does not enumerate paths).
    TooManyPaths {
        /// Exact number of root→leaf paths (if countable).
        total: Option<u128>,
        /// The configured cap.
        cap: usize,
    },
    /// `MaxLatency(N)` at the largest partition bound `N` the exploration
    /// would try is not a finite number of nanoseconds: `C_T` (or the sum
    /// of the task latencies) is so large that it overflows.
    LatencyOverflow {
        /// The partition bound whose latency bound overflows.
        n: u32,
    },
    /// The underlying MILP solver failed.
    Milp(rtr_milp::MilpError),
    /// A checkpoint could not be loaded, parsed, or replayed: missing or
    /// malformed file, unsupported schema version, a fingerprint that does
    /// not match this instance and parameter set, or a cached window that
    /// fails validation.
    Checkpoint {
        /// What went wrong, including the offending record when known.
        detail: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroPartitions => write!(f, "partition bound must be at least 1"),
            PartitionError::TaskTooLarge { task, min_area, capacity } => write!(
                f,
                "task `{task}` needs at least {min_area} area units but the device has {capacity}"
            ),
            PartitionError::TooManyPaths { total, cap } => match total {
                Some(t) => write!(f, "task graph has {t} root-to-leaf paths, above the cap {cap}"),
                None => write!(f, "task graph has more than u128 root-to-leaf paths (cap {cap})"),
            },
            PartitionError::LatencyOverflow { n } => write!(
                f,
                "the latency bound at N = {n} partitions is not finite: the reconfiguration \
                 time or the task latencies are too large"
            ),
            PartitionError::Milp(e) => write!(f, "milp solver: {e}"),
            PartitionError::Checkpoint { detail } => write!(f, "checkpoint: {detail}"),
        }
    }
}

impl Error for PartitionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PartitionError::Milp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rtr_milp::MilpError> for PartitionError {
    fn from(e: rtr_milp::MilpError) -> Self {
        PartitionError::Milp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PartitionError::TaskTooLarge { task: "big".into(), min_area: 700, capacity: 576 };
        assert!(e.to_string().contains("`big`"));
        assert!(e.source().is_none());
        let m = PartitionError::Milp(rtr_milp::MilpError::IterationLimit { limit: 3 });
        assert!(m.source().is_some());
    }
}
