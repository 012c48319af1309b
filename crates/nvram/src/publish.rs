//! Publish-side NVRAM write accounting: the one sanctioned `graph_write`
//! path.
//!
//! Sage's serving discipline is that *readers never write the graph* —
//! `graph_write == 0` for every query, enforced by the meter, the tests, and
//! `sage-lint`'s write-discipline pass. The single legitimate exception is
//! **snapshot publication**: compacting a base + delta overlay into a fresh
//! snapshot and flushing it to NVRAM. Those writes are real NVRAM traffic
//! (ω-cost in the PSAM, Figure 3), so they must be metered — but only here,
//! under the publisher's own [`MeterScope`](crate::MeterScope), and only
//! within a configurable [`WriteBudget`].
//!
//! This module is on `sage-lint`'s `graph-write` allowlist; flush paths call
//! [`charge_publish_write`] instead of touching `meter::graph_write`
//! directly, keeping every publish write auditable at one call site.

use crate::meter;
use std::fmt;

/// A cap on the NVRAM words one publish may flush. `0` means unlimited
/// (useful for tests and cold loads); a serving deployment sets it to bound
/// write amplification per update batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteBudget {
    words: u64,
}

impl WriteBudget {
    /// No cap: every publish is admitted.
    pub const UNLIMITED: WriteBudget = WriteBudget { words: 0 };

    /// A budget of `words` 8-byte words per publish (`0` = unlimited).
    pub fn new(words: u64) -> Self {
        Self { words }
    }

    /// The configured cap in words (`0` = unlimited).
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Gate a publish that would flush `words` words. Called **before** any
    /// NVRAM write happens, so a refused publish leaves the store untouched.
    pub fn admit(&self, words: u64) -> Result<(), BudgetExceeded> {
        if self.words != 0 && words > self.words {
            Err(BudgetExceeded {
                needed: words,
                budget: self.words,
            })
        } else {
            Ok(())
        }
    }
}

impl Default for WriteBudget {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// A publish was refused because its flush would exceed the write budget.
/// No NVRAM write happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Words the flush would have written.
    pub needed: u64,
    /// The configured cap.
    pub budget: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "publish refused: flush of {} words exceeds the write budget of {} words",
            self.needed, self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Meter `words` NVRAM words written by a snapshot flush. The **only**
/// sanctioned `graph_write` call site outside the meter itself (and the
/// GBBS-baseline shim); call it under the publish's own scope so the traffic
/// is attributed to the publisher, never to a reader.
pub fn charge_publish_write(words: u64) {
    meter::graph_write(words);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeterScope;

    #[test]
    fn budget_admits_and_refuses() {
        let b = WriteBudget::new(100);
        assert!(b.admit(100).is_ok());
        let err = b.admit(101).unwrap_err();
        assert_eq!((err.needed, err.budget), (101, 100));
        assert!(WriteBudget::UNLIMITED.admit(u64::MAX).is_ok());
        assert_eq!(WriteBudget::default().words(), 0);
    }

    #[test]
    fn charge_lands_on_the_enclosing_scope() {
        let scope = MeterScope::new();
        scope.enter(|| charge_publish_write(42));
        assert_eq!(scope.snapshot().graph_write, 42);
    }
}
