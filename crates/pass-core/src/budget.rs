//! Execution budgets: cooperative deadlines and fuel.
//!
//! A [`Budget`] is a cheap-to-clone handle carried through every long loop
//! in the workspace — pass pipelines, fixed-point iteration, `vitis-sim`
//! block scheduling and II search. Stages call [`Budget::charge`] (or the
//! non-consuming [`Budget::check`]) at loop boundaries; when the wall-clock
//! deadline has passed or the shared fuel pool runs dry, the call returns a
//! structured [`BudgetError`] naming the stage that tripped, and the stage
//! unwinds cooperatively instead of wedging its worker thread.
//!
//! Two resources are tracked:
//!
//! * **deadline** — an absolute [`Instant`]; checked on every charge.
//! * **fuel** — a shared signed counter ([`AtomicI64`] behind an [`Arc`]),
//!   decremented per unit of work. All clones of a budget draw from the
//!   same pool, so a kernel's flow, csynth, and cosim stages together
//!   cannot exceed the per-kernel allowance.
//!
//! A [`Budget`] is built once per unit of work by [`Budget::from_limits`]
//! (or [`Budget::unlimited`]). Trips travel typed: a pass manager returns
//! one as [`crate::Error::Budget`], and the flow definition
//! (`fuzzing::flow`) hands its callers the same [`BudgetError`] to match
//! on. The rendered grammar — `"{kind} budget exceeded in {stage}:
//! {detail}"` — is display output only.

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which budget resource was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The fuel pool ran dry.
    Fuel,
}

impl BudgetKind {
    /// Canonical lowercase name used in the rendered grammar.
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetKind::Deadline => "deadline",
            BudgetKind::Fuel => "fuel",
        }
    }

    /// Inverse of [`BudgetKind::as_str`].
    pub fn parse(s: &str) -> Option<BudgetKind> {
        match s {
            "deadline" => Some(BudgetKind::Deadline),
            "fuel" => Some(BudgetKind::Fuel),
            _ => None,
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A budget trip: which resource, in which stage, with detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetError {
    /// Exhausted resource.
    pub kind: BudgetKind,
    /// Stage that observed the trip (e.g. a pass name, `csynth/schedule`).
    pub stage: String,
    /// Human detail (remaining fuel, overshoot).
    pub detail: String,
}

impl BudgetError {
    /// Build a trip record for `stage`.
    pub fn new(kind: BudgetKind, stage: &str, detail: impl Into<String>) -> BudgetError {
        BudgetError {
            kind,
            stage: stage.to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exceeded in {}: {}",
            self.kind, self.stage, self.detail
        )
    }
}

impl std::error::Error for BudgetError {}

/// A deadline and/or fuel allowance shared by every stage of one unit of
/// work. Cloning is cheap; clones share the fuel pool.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    fuel: Option<Arc<AtomicI64>>,
}

impl Budget {
    /// A budget that never trips (both resources absent).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget from optional limits: a deadline `deadline_ms` from now
    /// and a fuel pool of `fuel` units (`None` leaves that resource unset).
    pub fn from_limits(deadline_ms: Option<u64>, fuel: Option<u64>) -> Budget {
        Budget {
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            fuel: fuel.map(|units| Arc::new(AtomicI64::new(units.min(i64::MAX as u64) as i64))),
        }
    }

    /// True when neither a deadline nor fuel is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.fuel.is_none()
    }

    /// Remaining fuel, if a pool is set (may be negative after a trip).
    pub fn remaining_fuel(&self) -> Option<i64> {
        self.fuel.as_ref().map(|f| f.load(Ordering::Relaxed))
    }

    /// Time left before the deadline, if one is set (zero once expired).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Drain the fuel pool immediately (fault injection). No-op without a
    /// pool.
    pub fn exhaust_fuel(&self) {
        if let Some(f) = &self.fuel {
            f.store(-1, Ordering::Relaxed);
        }
    }

    fn check_deadline(&self, stage: &str) -> Result<(), BudgetError> {
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if now >= d {
                // One fixed unit, so one trip site renders one shape
                // whatever the overshoot's magnitude.
                let over_us = now.saturating_duration_since(d).as_micros();
                return Err(BudgetError::new(
                    BudgetKind::Deadline,
                    stage,
                    format!("wall clock over by {over_us}µs"),
                ));
            }
        }
        Ok(())
    }

    /// Consume `units` of fuel on behalf of `stage`, checking the deadline
    /// first. Errs with a structured [`BudgetError`] when either resource
    /// is exhausted. With no deadline and no pool this is free.
    pub fn charge(&self, units: u64, stage: &str) -> Result<(), BudgetError> {
        self.check_deadline(stage)?;
        if let Some(f) = &self.fuel {
            let units = units.min(i64::MAX as u64) as i64;
            let before = f.fetch_sub(units, Ordering::Relaxed);
            if before < units {
                return Err(BudgetError::new(
                    BudgetKind::Fuel,
                    stage,
                    format!("pool empty ({} unit(s) requested)", units),
                ));
            }
        }
        Ok(())
    }

    /// Non-consuming probe: deadline not passed and fuel (if any) positive.
    pub fn check(&self, stage: &str) -> Result<(), BudgetError> {
        self.check_deadline(stage)?;
        if let Some(f) = &self.fuel {
            if f.load(Ordering::Relaxed) <= 0 {
                return Err(BudgetError::new(BudgetKind::Fuel, stage, "pool empty"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            b.charge(1, "loop").unwrap();
        }
        b.check("tail").unwrap();
        assert_eq!(b.remaining_fuel(), None);
        assert_eq!(b.remaining_time(), None);
    }

    #[test]
    fn fuel_pool_is_shared_across_clones_and_trips() {
        let b = Budget::from_limits(None, Some(3));
        let c = b.clone();
        b.charge(2, "a").unwrap();
        c.charge(1, "b").unwrap();
        let err = c.charge(1, "c").unwrap_err();
        assert_eq!(err.kind, BudgetKind::Fuel);
        assert_eq!(err.stage, "c");
        // Once dry, every clone observes the trip.
        assert!(b.check("after").is_err());
    }

    #[test]
    fn expired_deadline_trips_with_stage() {
        let b = Budget::from_limits(Some(0), None);
        std::thread::sleep(Duration::from_millis(2));
        let err = b.charge(1, "schedule").unwrap_err();
        assert_eq!(err.kind, BudgetKind::Deadline);
        assert_eq!(err.stage, "schedule");
        assert_eq!(b.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn from_limits_sets_only_the_given_resources() {
        assert!(Budget::from_limits(None, None).is_unlimited());
        let fuel = Budget::from_limits(None, Some(2));
        assert_eq!(fuel.remaining_fuel(), Some(2));
        assert_eq!(fuel.remaining_time(), None);
        let deadline = Budget::from_limits(Some(0), None);
        assert_eq!(deadline.remaining_fuel(), None);
        assert_eq!(
            deadline.charge(1, "x").unwrap_err().kind,
            BudgetKind::Deadline
        );
    }

    #[test]
    fn exhaust_fuel_is_immediate() {
        let b = Budget::from_limits(None, Some(1_000_000));
        b.exhaust_fuel();
        assert_eq!(b.check("x").unwrap_err().kind, BudgetKind::Fuel);
    }

    #[test]
    fn rendered_grammar_is_pinned() {
        let e = BudgetError::new(
            BudgetKind::Fuel,
            "csynth/schedule",
            "pool empty (1 unit(s) requested)",
        );
        assert_eq!(
            e.to_string(),
            "fuel budget exceeded in csynth/schedule: pool empty (1 unit(s) requested)"
        );
        let late = BudgetError::new(BudgetKind::Deadline, "dce", "wall clock over by 97µs");
        assert_eq!(
            late.to_string(),
            "deadline budget exceeded in dce: wall clock over by 97µs"
        );
    }
}
