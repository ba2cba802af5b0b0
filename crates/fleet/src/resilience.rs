//! Self-healing policy for the async fleet: deadlines, retry budgets
//! and circuit breaking — every decision a typed event, never a panic
//! (every tick and backoff sum saturates, whatever the config says).
//!
//! [`crate::chaos`] decides *what breaks*; this module decides *what
//! the fleet does about it*. The two are deliberately separate: chaos
//! is a test-harness concern (default [`crate::ChaosPlan::none`]),
//! resilience is a serving-policy concern (default
//! [`ResilienceConfig::default`], everything off) — and both defaults
//! compose to a driver bit-identical with the pre-chaos fleet.
//!
//! The recovery ladder, in escalation order:
//!
//! 1. **Retry with backoff** — a job finishing with an infrastructure
//!    fault outcome (`SealFailed` / `WorkerPanic` / `RevivalFailed`) is
//!    re-queued `base << attempt` ticks later (plus seeded jitter) until
//!    its per-job budget runs out. Transient faults cost latency, not
//!    availability.
//! 2. **Deadlines** — queued work whose sojourn exceeds its class
//!    deadline (priced in *virtual* cycles) is shed with a typed
//!    [`crate::JobOutcome::DeadlineMissed`] record instead of rotting in
//!    queue and dragging every later arrival past its own SLO.
//! 3. **Circuit breaker** — a burst of faults inside a sliding window
//!    opens a class-level breaker that sheds best-effort admissions
//!    (weight ≤ `shed_max_weight`) for a cooldown, protecting
//!    interactive SLOs with capacity instead of hope. Open → close
//!    spans are the MTTR the bench reports.

use std::collections::{BTreeMap, VecDeque};

use crate::chaos::Seam;
use crate::job::{JobId, TenantId};
use crate::ClassId;

/// Class-level circuit-breaker policy. The breaker is global (faults
/// anywhere open it) but sheds only low-weight classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding window, in ticks, over which faults are counted.
    pub window_ticks: u64,
    /// Faults inside the window that trip the breaker open.
    pub fault_threshold: u32,
    /// Ticks the breaker stays open once tripped, clamped to at least 2:
    /// it trips while a tick settles and closes at the top of a later
    /// tick, before that tick admits, so only a span of 2 or more sheds
    /// a scheduled arrival.
    pub cooldown_ticks: u64,
    /// Classes with WFQ weight ≤ this are shed while open; heavier
    /// (interactive) classes keep admitting.
    pub shed_max_weight: u64,
}

/// Recovery policy knobs. `Default` turns *everything* off so the
/// plain fleet is untouched; [`ResilienceConfig::standard`] is the
/// preset the bench and drills use.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Per-class sojourn deadline in virtual cycles (arrival → finish).
    /// Classes absent from the map have no deadline.
    pub deadlines: BTreeMap<ClassId, u64>,
    /// Retries a job may consume before its fault outcome sticks.
    pub max_retries: u32,
    /// Backoff base: retry `n` waits `base << (n-1)` ticks (saturating).
    pub backoff_base_ticks: u64,
    /// Upper bound on the seeded jitter added to each backoff.
    pub backoff_jitter_ticks: u64,
    /// Circuit-breaker policy; `None` never sheds.
    pub breaker: Option<BreakerConfig>,
}

impl ResilienceConfig {
    /// The survival preset: bounded retries with jittered backoff and a
    /// breaker shedding weight-1 classes. Deadlines are left to the
    /// caller (they depend on workload scale).
    pub fn standard() -> ResilienceConfig {
        ResilienceConfig {
            deadlines: BTreeMap::new(),
            max_retries: 2,
            backoff_base_ticks: 2,
            backoff_jitter_ticks: 3,
            breaker: Some(BreakerConfig {
                window_ticks: 32,
                fault_threshold: 10,
                cooldown_ticks: 24,
                shed_max_weight: 1,
            }),
        }
    }

    pub(crate) fn retryable(&self) -> bool {
        self.max_retries > 0
    }

    /// Ticks retry number `attempt` (1-based) waits before jitter:
    /// `base << (attempt - 1)` with a zero base read as 1, saturating at
    /// `u64::MAX` instead of dropping high bits.
    pub(crate) fn backoff_ticks(&self, attempt: u32) -> u64 {
        1u64.checked_shl(attempt.saturating_sub(1))
            .and_then(|scale| self.backoff_base_ticks.max(1).checked_mul(scale))
            .unwrap_or(u64::MAX)
    }
}

/// One fault or recovery decision, in coordinator (deterministic)
/// order. The event log is the accounting surface the acceptance
/// criterion "every fault accounted for by a typed event" pins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResilienceEvent {
    /// The chaos plan struck a seam.
    FaultInjected {
        /// Virtual tick of the strike.
        tick: u64,
        /// Which fault process fired.
        seam: Seam,
        /// The struck job, when the seam is job-scoped.
        job: Option<JobId>,
        /// Its tenant.
        tenant: Option<TenantId>,
    },
    /// A faulted job was re-queued instead of finished.
    RetryScheduled {
        /// Tick the fault outcome settled.
        tick: u64,
        /// The retried job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// 1-based retry number.
        attempt: u32,
        /// Tick the retry re-arrives at.
        resume_tick: u64,
    },
    /// A job consumed its whole retry budget; the fault outcome stands.
    RetriesExhausted {
        /// Tick of the final fault.
        tick: u64,
        /// The job whose budget ran out.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// Retries consumed.
        attempts: u32,
    },
    /// A queued job blew its class deadline and was shed with a typed
    /// `DeadlineMissed` record.
    DeadlineShed {
        /// Tick of the shed.
        tick: u64,
        /// The shed job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// Queue cycles it had accrued.
        waited_cycles: u64,
        /// The class deadline it exceeded.
        deadline_cycles: u64,
    },
    /// A job *finished*, but past its class deadline (served late, not
    /// shed — the SLO metric distinguishes the two).
    DeadlineLate {
        /// Tick it finished.
        tick: u64,
        /// The late job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// Arrival → finish, in virtual cycles.
        sojourn_cycles: u64,
        /// The deadline it exceeded.
        deadline_cycles: u64,
    },
    /// The breaker shed an admission.
    LoadShed {
        /// Tick of the rejected admission.
        tick: u64,
        /// The shed tenant.
        tenant: TenantId,
        /// Its class.
        class: ClassId,
    },
    /// Fault pressure tripped the breaker open.
    BreakerOpened {
        /// Tick it opened.
        tick: u64,
        /// Tick it will close (cooldown end).
        until_tick: u64,
        /// Faults inside the window that tripped it.
        recent_faults: u32,
    },
    /// The breaker's cooldown elapsed.
    BreakerClosed {
        /// Tick it closed.
        tick: u64,
        /// Tick it had opened (close − open = recovery span).
        opened_tick: u64,
    },
}

/// Counters over the resilience event stream — the roll-up
/// `BENCH_chaos.json` and operators read. Each is folded from the typed
/// [`ResilienceEvent`]s as they are recorded, so folding the drained
/// events reproduces them: `breaker_open_ticks` adds, at each close,
/// the span from the open to the cooldown end its `BreakerOpened`
/// announced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Total chaos strikes across all seams.
    pub faults_injected: u64,
    /// Seal-seam strikes.
    pub seal_faults: u64,
    /// Snapshot-corruption strikes.
    pub snapshot_corruptions: u64,
    /// Worker-stall strikes.
    pub worker_stalls: u64,
    /// Worker-death strikes.
    pub worker_panics_injected: u64,
    /// Checkpoint-truncation strikes (harness-drawn).
    pub checkpoint_truncations: u64,
    /// Storm-burst strikes (harness-drawn).
    pub storm_bursts: u64,
    /// Retries scheduled.
    pub retries_scheduled: u64,
    /// Jobs whose retry budget ran out.
    pub retries_exhausted: u64,
    /// Jobs shed from queue past deadline.
    pub deadline_shed: u64,
    /// Jobs finished past deadline.
    pub deadline_late: u64,
    /// Admissions shed by the open breaker.
    pub load_shed: u64,
    /// Breaker open transitions.
    pub breaker_opens: u64,
    /// Breaker close transitions.
    pub breaker_closes: u64,
    /// Ticks spent open across all open→close spans (MTTR numerator).
    pub breaker_open_ticks: u64,
}

/// Coordinator-side resilience state machine. All mutation happens on
/// the driver thread, so the event order is deterministic.
#[derive(Debug)]
pub(crate) struct ResilienceState {
    pub(crate) config: ResilienceConfig,
    pub(crate) stats: ResilienceStats,
    events: Vec<ResilienceEvent>,
    /// Per-job retry attempts consumed (keyed by raw job id).
    attempts: BTreeMap<u64, u32>,
    /// Ticks of recent breaker-feeding faults (sliding window).
    fault_ticks: VecDeque<u64>,
    /// `(opened_tick, until_tick)` while the breaker is open.
    breaker_open: Option<(u64, u64)>,
}

impl ResilienceState {
    pub(crate) fn new(config: ResilienceConfig) -> ResilienceState {
        ResilienceState {
            config,
            stats: ResilienceStats::default(),
            events: Vec::new(),
            attempts: BTreeMap::new(),
            fault_ticks: VecDeque::new(),
            breaker_open: None,
        }
    }

    pub(crate) fn drain_events(&mut self) -> Vec<ResilienceEvent> {
        std::mem::take(&mut self.events)
    }

    /// The one recording path: folds `event` into the counters and
    /// appends it to the log, so every counter is a fold of the events.
    /// A close adds its span up to the cooldown's end, which the open
    /// breaker still holds.
    pub(crate) fn record(&mut self, event: ResilienceEvent) {
        let stats = &mut self.stats;
        match &event {
            ResilienceEvent::FaultInjected { seam, .. } => {
                stats.faults_injected += 1;
                *match seam {
                    Seam::Seal => &mut stats.seal_faults,
                    Seam::Snapshot => &mut stats.snapshot_corruptions,
                    Seam::Stall => &mut stats.worker_stalls,
                    Seam::Panic => &mut stats.worker_panics_injected,
                    Seam::Checkpoint => &mut stats.checkpoint_truncations,
                    Seam::Storm => &mut stats.storm_bursts,
                } += 1;
            }
            ResilienceEvent::RetryScheduled { .. } => stats.retries_scheduled += 1,
            ResilienceEvent::RetriesExhausted { .. } => stats.retries_exhausted += 1,
            ResilienceEvent::DeadlineShed { .. } => stats.deadline_shed += 1,
            ResilienceEvent::DeadlineLate { .. } => stats.deadline_late += 1,
            ResilienceEvent::LoadShed { .. } => stats.load_shed += 1,
            ResilienceEvent::BreakerOpened { .. } => stats.breaker_opens += 1,
            ResilienceEvent::BreakerClosed { opened_tick, .. } => {
                stats.breaker_closes += 1;
                if let Some((_, until)) = self.breaker_open {
                    stats.breaker_open_ticks += until - opened_tick;
                }
            }
        }
        self.events.push(event);
    }

    /// Records a chaos strike.
    pub(crate) fn note_fault(
        &mut self,
        tick: u64,
        seam: Seam,
        job: Option<JobId>,
        tenant: Option<TenantId>,
    ) {
        self.record(ResilienceEvent::FaultInjected {
            tick,
            seam,
            job,
            tenant,
        });
    }

    /// Feed one fault *record* (settled fault outcome, retried or not)
    /// into the breaker window; may trip it open.
    pub(crate) fn feed_breaker(&mut self, tick: u64) {
        let breaker = match &self.config.breaker {
            Some(b) => b.clone(),
            None => return,
        };
        self.fault_ticks.push_back(tick);
        while let Some(&front) = self.fault_ticks.front() {
            if front.saturating_add(breaker.window_ticks) <= tick {
                self.fault_ticks.pop_front();
            } else {
                break;
            }
        }
        let recent = self.fault_ticks.len() as u32;
        if self.breaker_open.is_none() && recent >= breaker.fault_threshold {
            let until = tick.saturating_add(breaker.cooldown_ticks.max(2));
            self.breaker_open = Some((tick, until));
            self.record(ResilienceEvent::BreakerOpened {
                tick,
                until_tick: until,
                recent_faults: recent,
            });
        }
    }

    /// Close the breaker if its cooldown has elapsed (called at the top
    /// of every tick, before admissions).
    pub(crate) fn breaker_tick(&mut self, tick: u64) {
        if let Some((opened, until)) = self.breaker_open {
            if tick >= until {
                self.record(ResilienceEvent::BreakerClosed {
                    tick,
                    opened_tick: opened,
                });
                self.breaker_open = None;
            }
        }
    }

    /// Whether an admission for a class of `weight` should be shed.
    pub(crate) fn sheds(&self, weight: u64) -> bool {
        match (&self.breaker_open, &self.config.breaker) {
            (Some(_), Some(b)) => weight <= b.shed_max_weight,
            _ => false,
        }
    }

    /// Consume one retry from `job`'s budget. If the job may retry,
    /// records the retry and returns the tick it re-arrives at: after
    /// the backoff for its attempt number plus `jitter(max, attempt)`
    /// seeded ticks. Otherwise returns `None`, recording the exhaustion
    /// when a budget existed: the fault stands.
    pub(crate) fn take_retry(
        &mut self,
        tick: u64,
        job: JobId,
        tenant: TenantId,
        jitter: impl FnOnce(u64, u32) -> u64,
    ) -> Option<u64> {
        if !self.config.retryable() {
            return None;
        }
        let used = self.attempts.entry(job.0).or_insert(0);
        if *used < self.config.max_retries {
            *used += 1;
            let attempt = *used;
            let resume_tick = tick
                .saturating_add(1)
                .saturating_add(self.config.backoff_ticks(attempt))
                .saturating_add(jitter(self.config.backoff_jitter_ticks, attempt));
            self.record(ResilienceEvent::RetryScheduled {
                tick,
                job,
                tenant,
                attempt,
                resume_tick,
            });
            Some(resume_tick)
        } else {
            let attempts = *used;
            self.attempts.remove(&job.0);
            self.record(ResilienceEvent::RetriesExhausted {
                tick,
                job,
                tenant,
                attempts,
            });
            None
        }
    }

    /// Forget a job's retry ledger once it finishes for good.
    pub(crate) fn finish_job(&mut self, job: JobId) {
        self.attempts.remove(&job.0);
    }

    /// The deadline for `class`, if one is configured.
    pub(crate) fn deadline(&self, class: ClassId) -> Option<u64> {
        self.config.deadlines.get(&class).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(_max: u64, _attempt: u32) -> u64 {
        0
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = ResilienceConfig::default();
        assert!(!cfg.retryable());
        assert!(cfg.deadlines.is_empty());
        assert!(cfg.breaker.is_none());
        let mut state = ResilienceState::new(cfg);
        state.feed_breaker(5);
        assert!(!state.sheds(1));
        assert!(state
            .take_retry(5, JobId(1), TenantId(1), no_jitter)
            .is_none());
        assert!(state.drain_events().is_empty());
        assert_eq!(state.stats, ResilienceStats::default());
    }

    #[test]
    fn breaker_opens_sheds_and_closes() {
        let mut cfg = ResilienceConfig::standard();
        cfg.breaker = Some(BreakerConfig {
            window_ticks: 10,
            fault_threshold: 3,
            cooldown_ticks: 5,
            shed_max_weight: 1,
        });
        let mut state = ResilienceState::new(cfg);
        state.feed_breaker(1);
        state.feed_breaker(2);
        assert!(!state.sheds(1));
        state.feed_breaker(3);
        assert!(state.sheds(1), "third fault in window trips the breaker");
        assert!(!state.sheds(4), "heavy classes keep admitting");
        state.breaker_tick(7);
        assert!(state.sheds(1), "cooldown not elapsed");
        state.breaker_tick(8);
        assert!(!state.sheds(1), "cooldown elapsed");
        assert_eq!(state.stats.breaker_opens, 1);
        assert_eq!(state.stats.breaker_closes, 1);
        assert_eq!(state.stats.breaker_open_ticks, 5);
        let events = state.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ResilienceEvent::BreakerOpened { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ResilienceEvent::BreakerClosed { .. })));
    }

    #[test]
    fn a_zero_cooldown_breaker_still_sheds_the_next_tick() {
        let mut cfg = ResilienceConfig::standard();
        cfg.breaker = Some(BreakerConfig {
            window_ticks: 10,
            fault_threshold: 1,
            cooldown_ticks: 0,
            shed_max_weight: 1,
        });
        let mut state = ResilienceState::new(cfg);
        state.feed_breaker(4);
        state.breaker_tick(5);
        assert!(state.sheds(1), "open through the tick after the trip");
        state.breaker_tick(6);
        assert!(!state.sheds(1), "closed two ticks after the trip");
        assert_eq!(state.stats.breaker_closes, 1);
        assert_eq!(state.stats.breaker_open_ticks, 2);
    }

    #[test]
    fn retry_budget_is_per_job_and_exhausts() {
        let mut cfg = ResilienceConfig::standard();
        cfg.max_retries = 2;
        let mut state = ResilienceState::new(cfg);
        let (job, tenant) = (JobId(9), TenantId(3));
        // Re-arrival = tick + 1 + (2 << (attempt - 1)) with no jitter.
        assert_eq!(state.take_retry(1, job, tenant, no_jitter), Some(4));
        assert_eq!(state.take_retry(2, job, tenant, no_jitter), Some(7));
        assert_eq!(state.take_retry(3, job, tenant, no_jitter), None);
        assert_eq!(state.stats.retries_scheduled, 2);
        assert_eq!(state.stats.retries_exhausted, 1);
        // A different job has its own budget.
        assert_eq!(state.take_retry(4, JobId(10), tenant, |_, _| 3), Some(10));
    }

    #[test]
    fn an_unbounded_breaker_window_saturates() {
        let mut cfg = ResilienceConfig::standard();
        cfg.breaker = Some(BreakerConfig {
            window_ticks: u64::MAX,
            fault_threshold: 3,
            cooldown_ticks: 5,
            shed_max_weight: 1,
        });
        let mut state = ResilienceState::new(cfg);
        state.feed_breaker(7);
        state.feed_breaker(1 << 40);
        assert!(!state.sheds(1), "two faults stay under the threshold");
        state.feed_breaker(u64::MAX - 1);
        assert!(state.sheds(1), "no fault ever leaves an endless window");
    }

    #[test]
    fn an_endless_breaker_cooldown_saturates() {
        let mut cfg = ResilienceConfig::standard();
        cfg.breaker = Some(BreakerConfig {
            window_ticks: 10,
            fault_threshold: 1,
            cooldown_ticks: u64::MAX,
            shed_max_weight: 1,
        });
        let mut state = ResilienceState::new(cfg);
        state.feed_breaker(9);
        state.breaker_tick(u64::MAX - 1);
        assert!(state.sheds(1), "the breaker stays open to the end of time");
        assert_eq!(
            state.drain_events(),
            vec![ResilienceEvent::BreakerOpened {
                tick: 9,
                until_tick: u64::MAX,
                recent_faults: 1,
            }]
        );
    }

    #[test]
    fn backoff_saturates_instead_of_dropping_high_bits() {
        let mut cfg = ResilienceConfig::standard();
        cfg.backoff_base_ticks = 3;
        assert_eq!(cfg.backoff_ticks(1), 3);
        assert_eq!(cfg.backoff_ticks(3), 12);
        assert_eq!(cfg.backoff_ticks(63), 3 << 62);
        assert_eq!(cfg.backoff_ticks(64), u64::MAX, "3 << 63 loses a bit");
        assert_eq!(cfg.backoff_ticks(65), u64::MAX);
        assert_eq!(cfg.backoff_ticks(u32::MAX), u64::MAX);
        cfg.backoff_base_ticks = 0;
        assert_eq!(cfg.backoff_ticks(1), 1, "a zero base reads as one tick");
        assert_eq!(cfg.backoff_ticks(64), 1 << 63);
    }

    #[test]
    fn every_counter_bump_has_a_typed_event() {
        let mut state = ResilienceState::new(ResilienceConfig::standard());
        state.note_fault(1, Seam::Snapshot, Some(JobId(1)), Some(TenantId(1)));
        state.record(ResilienceEvent::DeadlineShed {
            tick: 2,
            job: JobId(2),
            tenant: TenantId(1),
            waited_cycles: 900,
            deadline_cycles: 500,
        });
        state.record(ResilienceEvent::DeadlineLate {
            tick: 3,
            job: JobId(3),
            tenant: TenantId(1),
            sojourn_cycles: 700,
            deadline_cycles: 500,
        });
        state.record(ResilienceEvent::LoadShed {
            tick: 4,
            tenant: TenantId(2),
            class: ClassId(0),
        });
        let events = state.drain_events();
        assert_eq!(events.len(), 4);
        assert_eq!(state.stats.faults_injected, 1);
        assert_eq!(state.stats.deadline_shed, 1);
        assert_eq!(state.stats.deadline_late, 1);
        assert_eq!(state.stats.load_shed, 1);
    }
}
