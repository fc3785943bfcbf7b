//! Deterministic memory-hierarchy fault injection.
//!
//! A [`FaultPlan`] describes *what can go wrong* between the L2
//! partition and the L1s: fill responses may be dropped, duplicated,
//! or delayed, and the interconnect may suffer periodic bandwidth
//! "brownouts". All decisions are drawn from a seeded generator, so a
//! given `(plan, kernel, config)` triple always produces the same
//! simulation — faulty runs are as reproducible as clean ones.
//!
//! The plan also carries the *response* to faults: when
//! [`FaultPlan::recovery`] is set, the L1 re-issues read misses whose
//! MSHR entry has been outstanding longer than the timeout, up to a
//! retry budget. Without recovery, a dropped fill permanently strands
//! its waiters and the forward-progress watchdog converts the hang
//! into a [`StopReason::Deadlock`](crate::StopReason::Deadlock).

use crate::stats::FaultStats;
use crate::types::Cycle;

/// Periodic interconnect bandwidth reduction.
///
/// For the first `active` cycles of every `period` cycles, both NoC
/// directions run at `scale` times their configured byte budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// Cycle length of one brownout cycle (active + healthy).
    pub period: u64,
    /// Leading cycles of each period with reduced bandwidth.
    pub active: u64,
    /// Bandwidth multiplier while active, in `(0, 1]`.
    pub scale: f64,
}

/// Timeout-and-reissue recovery for lost fill responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Cycles an MSHR entry may wait for its fill before the miss is
    /// re-issued down the hierarchy.
    pub timeout: u64,
    /// Maximum re-issues per MSHR entry. When exhausted the entry is
    /// left to the watchdog.
    pub max_retries: u32,
}

/// A seeded, deterministic description of injected faults.
///
/// The default plan injects nothing and adds no overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// Probability a read fill response is silently dropped.
    pub drop_response: f64,
    /// Probability a read fill response is delivered twice.
    pub duplicate_response: f64,
    /// Probability a read fill response is held back `delay_cycles`.
    pub delay_response: f64,
    /// Extra latency applied to delayed responses.
    pub delay_cycles: u64,
    /// Periodic interconnect bandwidth brownouts.
    pub brownout: Option<Brownout>,
    /// Timeout/reissue recovery; `None` leaves dropped fills stranded.
    pub recovery: Option<Recovery>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_response: 0.0,
            duplicate_response: 0.0,
            delay_response: 0.0,
            delay_cycles: 0,
            brownout: None,
            recovery: None,
        }
    }
}

impl FaultPlan {
    /// Whether any response-level fault can fire.
    pub fn perturbs_responses(&self) -> bool {
        self.drop_response > 0.0 || self.duplicate_response > 0.0 || self.delay_response > 0.0
    }

    /// Bandwidth multiplier in effect at `now` (1.0 = healthy).
    pub fn bandwidth_scale(&self, now: Cycle) -> f64 {
        match self.brownout {
            Some(b) if now.0 % b.period < b.active => b.scale,
            _ => 1.0,
        }
    }

    /// The first cycle after `now` whose bandwidth multiplier differs
    /// from `now`'s; never when the multiplier is constant.
    pub(crate) fn next_bandwidth_change(&self, now: Cycle) -> Cycle {
        let never = Cycle(u64::MAX);
        let Some(b) = self.brownout.filter(|b| b.scale < 1.0) else {
            return never;
        };
        let start = now.0 - now.0 % b.period;
        if now.0 % b.period < b.active {
            if b.active < b.period {
                Cycle(start + b.active)
            } else {
                never
            }
        } else if b.active > 0 {
            Cycle(start + b.period)
        } else {
            never
        }
    }

    /// Checks the plan's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a probability
    /// outside `[0, 1]`, combined probabilities above 1, or a
    /// malformed brownout/recovery shape.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_response", self.drop_response),
            ("duplicate_response", self.duplicate_response),
            ("delay_response", self.delay_response),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} probability {p} outside [0, 1]"));
            }
        }
        let total = self.drop_response + self.duplicate_response + self.delay_response;
        if total > 1.0 {
            return Err(format!("fault probabilities sum to {total} > 1"));
        }
        if self.delay_response > 0.0 && self.delay_cycles == 0 {
            return Err("delay_response needs delay_cycles > 0".to_string());
        }
        if let Some(b) = self.brownout {
            if b.period == 0 || b.active == 0 || b.active > b.period {
                return Err(format!(
                    "brownout needs 0 < active <= period, got {}/{}",
                    b.active, b.period
                ));
            }
            if !(0.0..=1.0).contains(&b.scale) || b.scale == 0.0 {
                return Err(format!("brownout scale {} outside (0, 1]", b.scale));
            }
        }
        if let Some(r) = self.recovery {
            if r.timeout == 0 {
                return Err("recovery timeout must be non-zero".to_string());
            }
        }
        Ok(())
    }
}

/// What the injector decided for one fill response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseFault {
    /// Deliver normally.
    Deliver,
    /// Drop silently; no response ever reaches the L1.
    Drop,
    /// Deliver twice (the L1 must tolerate the spurious copy).
    Duplicate,
    /// Deliver after the given extra delay.
    Delay(u64),
}

/// SplitMix64: small, fast, and deterministic. The fault stream must
/// not depend on an external RNG crate (snake-sim has no runtime
/// dependencies), and statistical quality far beyond this is not
/// needed for fault scheduling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws per-response fault decisions from a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    /// Counters for the faults actually fired.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector; the decision stream is a pure function of
    /// `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            // Avoid the all-zero fixed point without perturbing
            // non-zero seeds into each other.
            state: plan.seed ^ 0xA5A5_A5A5_5A5A_5A5A,
            stats: FaultStats::default(),
        }
    }

    fn unit(&mut self) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The generator's current position in the decision stream (the
    /// raw SplitMix64 state). Exposed so checkpoints can capture it:
    /// a restored chaos run must continue on the *same* decision
    /// stream, not restart it from the seed.
    pub fn generator_position(&self) -> u64 {
        self.state
    }

    /// Decides the fate of one fill response and records it.
    pub fn on_response(&mut self) -> ResponseFault {
        if !self.plan.perturbs_responses() {
            return ResponseFault::Deliver;
        }
        let roll = self.unit();
        let p = &self.plan;
        if roll < p.drop_response {
            self.stats.dropped_responses += 1;
            ResponseFault::Drop
        } else if roll < p.drop_response + p.duplicate_response {
            self.stats.duplicated_responses += 1;
            ResponseFault::Duplicate
        } else if roll < p.drop_response + p.duplicate_response + p.delay_response {
            self.stats.delayed_responses += 1;
            ResponseFault::Delay(p.delay_cycles)
        } else {
            ResponseFault::Deliver
        }
    }
}

// The generator position and fired-fault counters; the plan is
// config-derived.
crate::restore_fields!(FaultInjector { state, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Restore;

    fn plan_with(drop: f64, dup: f64, delay: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            drop_response: drop,
            duplicate_response: dup,
            delay_response: delay,
            delay_cycles: 10,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn default_plan_is_inert_and_valid() {
        let p = FaultPlan::default();
        assert!(p.validate().is_ok());
        assert!(!p.perturbs_responses());
        let mut inj = FaultInjector::new(p);
        for _ in 0..100 {
            assert_eq!(inj.on_response(), ResponseFault::Deliver);
        }
        assert_eq!(inj.stats, FaultStats::default());
    }

    #[test]
    fn same_seed_same_decision_stream() {
        let p = plan_with(0.2, 0.2, 0.2);
        let mut a = FaultInjector::new(p);
        let mut b = FaultInjector::new(p);
        for _ in 0..1000 {
            assert_eq!(a.on_response(), b.on_response());
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(plan_with(0.5, 0.0, 0.0));
        let mut b = FaultInjector::new(FaultPlan {
            seed: 7,
            ..plan_with(0.5, 0.0, 0.0)
        });
        let same = (0..256)
            .filter(|_| a.on_response() == b.on_response())
            .count();
        assert!(same < 256, "streams must not be identical");
    }

    #[test]
    fn fault_rates_roughly_match_probabilities() {
        let mut inj = FaultInjector::new(plan_with(0.3, 0.1, 0.2));
        for _ in 0..10_000 {
            inj.on_response();
        }
        let s = inj.stats;
        assert!((2500..3500).contains(&s.dropped_responses), "{s:?}");
        assert!((700..1300).contains(&s.duplicated_responses), "{s:?}");
        assert!((1500..2500).contains(&s.delayed_responses), "{s:?}");
    }

    #[test]
    fn restored_injector_continues_the_decision_stream() {
        let p = plan_with(0.2, 0.2, 0.2);
        let mut full = FaultInjector::new(p);
        let mut interrupted = FaultInjector::new(p);
        for _ in 0..137 {
            full.on_response();
            interrupted.on_response();
        }
        // "Kill" the interrupted run: serialize, rebuild from the
        // plan (which resets the stream to the seed), restore.
        let saved = interrupted.save_state();
        let mut resumed = FaultInjector::new(p);
        assert_ne!(
            resumed.generator_position(),
            interrupted.generator_position()
        );
        resumed.restore_state(&saved).unwrap();
        assert_eq!(resumed.generator_position(), full.generator_position());
        for _ in 0..500 {
            assert_eq!(resumed.on_response(), full.on_response());
        }
        assert_eq!(resumed.stats, full.stats);
        // Re-serialization is bit-stable.
        assert_eq!(
            resumed.save_state().to_string(),
            full.save_state().to_string()
        );
    }

    #[test]
    fn brownout_schedule_is_periodic() {
        let p = FaultPlan {
            brownout: Some(Brownout {
                period: 100,
                active: 25,
                scale: 0.25,
            }),
            ..FaultPlan::default()
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.bandwidth_scale(Cycle(0)), 0.25);
        assert_eq!(p.bandwidth_scale(Cycle(24)), 0.25);
        assert_eq!(p.bandwidth_scale(Cycle(25)), 1.0);
        assert_eq!(p.bandwidth_scale(Cycle(99)), 1.0);
        assert_eq!(p.bandwidth_scale(Cycle(100)), 0.25);
        for now in 0..250 {
            let scale = p.bandwidth_scale(Cycle(now));
            let next = (now + 1..).find(|&c| p.bandwidth_scale(Cycle(c)) != scale);
            assert_eq!(p.next_bandwidth_change(Cycle(now)), Cycle(next.unwrap()));
        }
        let always = FaultPlan {
            brownout: Some(Brownout {
                period: 10,
                active: 10,
                scale: 0.5,
            }),
            ..FaultPlan::default()
        };
        for plan in [FaultPlan::default(), always] {
            assert_eq!(plan.next_bandwidth_change(Cycle(7)), Cycle(u64::MAX));
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(plan_with(1.5, 0.0, 0.0).validate().is_err());
        assert!(plan_with(0.6, 0.6, 0.0).validate().is_err());
        assert!(FaultPlan {
            delay_response: 0.1,
            delay_cycles: 0,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            brownout: Some(Brownout {
                period: 10,
                active: 20,
                scale: 0.5
            }),
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            recovery: Some(Recovery {
                timeout: 0,
                max_retries: 3
            }),
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
    }
}
