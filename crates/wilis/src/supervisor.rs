//! The unwind boundary of the sweep stack.
//!
//! This is the **only** module in the workspace allowed to touch
//! `catch_unwind` / `resume_unwind` — the `supervised-unwind` lint rule
//! enforces it — so every policy decision about panics lives in one
//! place: worker jobs are quarantined (a panicking grid point becomes a
//! typed [`crate::faults::PointOutcome::Failed`] while the rest of the
//! grid completes), while a panic anywhere else — the outcome callback
//! on the calling thread, or the worker pool's own plumbing — is an
//! engine or caller bug and propagates unchanged.
//!
//! Keeping the boundary this narrow is what makes the policy auditable:
//! a `catch_unwind` sprinkled next to the code it guards can silently
//! swallow an invariant violation; a quarantine that must flow through
//! [`run_quarantined`] cannot.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f` under an unwind boundary: its value on success, the panic
/// payload rendered to text on unwind.
///
/// `AssertUnwindSafe` is sound here because callers discard every value
/// the closure may have half-mutated: a quarantined worker job's entire
/// output is replaced by the `Failed` outcome, so no witness of broken
/// state survives the catch.
pub(crate) fn run_quarantined<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker job panicked with a non-string payload".to_string()
        }
    })
}

/// The deliberate worker-job panic of the fault plan: fired inside the
/// unwind boundary when [`crate::faults::FaultSite::WorkerPanic`] is
/// scheduled at `point`, to exercise the same quarantine path an organic
/// panic would take.
pub(crate) fn inject_panic(point: usize) -> ! {
    panic!("injected worker panic at grid point {point}") // lint: allow(panic-policy) — the deliberate fault of the injection plan, always caught by run_quarantined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_renders_payloads() {
        assert_eq!(run_quarantined(|| 7), Ok(7));
        let msg = run_quarantined(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(msg, "boom 1");
        let msg = run_quarantined(|| std::panic::panic_any(42u32)).unwrap_err();
        assert!(msg.contains("non-string payload"));
    }

    #[test]
    fn injected_panic_is_catchable_and_named() {
        let msg = run_quarantined(|| inject_panic(3)).unwrap_err();
        assert_eq!(msg, "injected worker panic at grid point 3");
    }
}
