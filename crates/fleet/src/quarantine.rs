//! Per-tenant containment: what the fleet does when one tenant's device
//! reports a violation.
//!
//! The paper's core guarantee is per-device: a MAC mismatch or a forged
//! edge resets *that* core. At fleet scale the analogous guarantee is
//! per-tenant blast radius — one tenant's tampered image must never
//! perturb another tenant's results, statistics, or service. Containment
//! decisions are folded **on the coordinator, in tick then job order**,
//! so they are a deterministic function of the job set, independent of
//! how many workers raced through it.

/// What the fleet does about a tenant whose job ended in a violation
/// verdict ([`crate::JobOutcome::is_violation`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuarantinePolicy {
    /// Suspend the tenant: jobs already accepted still run (their results
    /// stay bit-identical to serial execution), but every later
    /// [`crate::Fleet::submit`] is rejected until
    /// [`crate::Fleet::release`]. The default — detection verdicts are
    /// what most experiments want.
    #[default]
    Suspend,
    /// Give the device the paper's reboot behaviour first: re-run the
    /// violating job once under [`sofia_core::ResetPolicy::Reboot`] with
    /// this reset budget, and suspend the tenant only if the retry still
    /// ends in a violation (persistent tamper).
    RetryWithReboot {
        /// Resets tolerated by the retry before it abandons.
        max_resets: u32,
    },
    /// Evict the tenant outright: drop its sealed images from the shared
    /// cache and reject all its future submissions. Accumulated
    /// statistics are kept for the post-mortem.
    Evict,
}

/// A tenant's service state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TenantState {
    /// Serving normally.
    #[default]
    Active,
    /// Quarantined by a violation; [`crate::Fleet::release`] reactivates.
    Suspended,
    /// Evicted by [`QuarantinePolicy::Evict`]; permanent for this fleet.
    Evicted,
}

/// What one finished record did to its tenant's containment state — the
/// return value of [`fold_policy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PolicyFold {
    /// The tenant transitioned `Active → Suspended` on this record.
    pub suspended_now: bool,
    /// The tenant transitioned to `Evicted` on this record.
    pub evicted_now: bool,
    /// The tenant's sealed images must be purged from the shared cache.
    /// True on *every* record an evicted tenant folds, not just the
    /// eviction itself: jobs admitted before the eviction still run to
    /// a record (their results must stay bit-identical to serial
    /// execution), and any of them may have re-sealed the tenant's
    /// program into the cache after the eviction purge.
    pub purge: bool,
}

/// Folds one finished record's containment verdict into the tenant's
/// state: the policy semantics, applied by the driver's per-record
/// `fold_finished` in [`crate::AsyncFleet`].
///
/// `contained` is whether the record needs containment (a violation,
/// violations without a clean halt, or a worker fault). Note
/// [`QuarantinePolicy::RetryWithReboot`] intentionally folds like
/// [`QuarantinePolicy::Suspend`] here: the reboot-retry itself is armed
/// *during service* (in the job's quantum, before any record exists),
/// so a record reaching the fold under that policy has already spent
/// its retry — persistent tamper, suspend.
pub(crate) fn fold_policy(
    policy: QuarantinePolicy,
    state: &mut TenantState,
    contained: bool,
) -> PolicyFold {
    let mut fold = PolicyFold::default();
    if contained {
        match policy {
            QuarantinePolicy::Suspend | QuarantinePolicy::RetryWithReboot { .. } => {
                if *state == TenantState::Active {
                    *state = TenantState::Suspended;
                    fold.suspended_now = true;
                }
            }
            QuarantinePolicy::Evict => {
                if *state != TenantState::Evicted {
                    *state = TenantState::Evicted;
                    fold.evicted_now = true;
                }
            }
        }
    }
    fold.purge = *state == TenantState::Evicted;
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_records_never_transition() {
        for policy in [
            QuarantinePolicy::Suspend,
            QuarantinePolicy::RetryWithReboot { max_resets: 3 },
            QuarantinePolicy::Evict,
        ] {
            let mut state = TenantState::Active;
            let fold = fold_policy(policy, &mut state, false);
            assert_eq!(state, TenantState::Active);
            assert_eq!(fold, PolicyFold::default());
        }
    }

    #[test]
    fn retry_with_reboot_suspends_like_suspend_after_the_retry() {
        for policy in [
            QuarantinePolicy::Suspend,
            QuarantinePolicy::RetryWithReboot { max_resets: 3 },
        ] {
            let mut state = TenantState::Active;
            let fold = fold_policy(policy, &mut state, true);
            assert_eq!(state, TenantState::Suspended);
            assert!(fold.suspended_now && !fold.evicted_now && !fold.purge);
            // A second violating record of the already-suspended tenant
            // changes nothing.
            let fold = fold_policy(policy, &mut state, true);
            assert_eq!(fold, PolicyFold::default());
        }
    }

    #[test]
    fn every_evicted_tenant_record_asks_for_a_purge() {
        let mut state = TenantState::Active;
        let fold = fold_policy(QuarantinePolicy::Evict, &mut state, true);
        assert_eq!(state, TenantState::Evicted);
        assert!(fold.evicted_now && fold.purge);
        // A straggler job of the evicted tenant — violating or clean —
        // may have re-sealed its image; both must purge again.
        for contained in [true, false] {
            let fold = fold_policy(QuarantinePolicy::Evict, &mut state, contained);
            assert!(!fold.evicted_now && fold.purge);
        }
    }
}
