//! The daemon-facing view of a dining solution.
//!
//! A *distributed daemon* continually selects non-conflicting processes to
//! execute their enabled actions (Song & Pike §2). When the daemon is
//! implemented by dining philosophers, each client process of the scheduled
//! protocol is a diner: it becomes hungry when it has an enabled action,
//! and when scheduled to eat it executes that action under the exclusion
//! guarantee.
//!
//! The contract is deliberately minimal so that any guarded-command-style
//! protocol — in this workspace, the self-stabilizing protocols of
//! `ekbd-stabilize` — can be scheduled by any [`DiningAlgorithm`](crate::DiningAlgorithm)
//! implementation via a host that:
//!
//! 1. issues `Hungry` whenever [`ScheduledClient::wants_step`] holds,
//! 2. calls [`ScheduledClient::execute_step`] once the diner eats,
//! 3. issues `DoneEating` immediately after (eating is always finite).
//!
//! Under ◇WX the daemon may make finitely many scheduling mistakes —
//! steps executed concurrently with a conflicting neighbor. For a
//! self-stabilizing client each such mistake is at worst one more transient
//! fault, which stabilization absorbs; this is exactly why ◇WX suffices as
//! a scheduling model for stabilizing protocols (§1).

/// A client process of the scheduled protocol, as seen by the daemon.
pub trait ScheduledClient {
    /// Whether the client currently has an enabled action, i.e. should be
    /// hungry. Clients of a self-stabilizing protocol typically want steps
    /// infinitely often.
    fn wants_step(&self) -> bool;

    /// Executes one enabled action. Called only while the daemon grants
    /// mutual exclusion against all conflicting neighbors (modulo the
    /// finitely many ◇WX mistakes).
    fn execute_step(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Countdown(u32);
    impl ScheduledClient for Countdown {
        fn wants_step(&self) -> bool {
            self.0 > 0
        }
        fn execute_step(&mut self) {
            self.0 -= 1;
        }
    }

    #[test]
    fn client_contract_round_trip() {
        let mut c = Countdown(2);
        assert!(c.wants_step());
        c.execute_step();
        c.execute_step();
        assert!(!c.wants_step());
    }
}
