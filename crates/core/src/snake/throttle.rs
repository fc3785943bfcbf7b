//! The throttling mechanism (§3.3).
//!
//! Two triggers halt prefetching:
//!
//! 1. **Space** — the unified cache ran out of free space and the
//!    prefetcher started evicting its own unconsumed lines (overrun):
//!    halt for a fixed pause so resident prefetched data gets consumed
//!    (the paper settles on 50 cycles, Fig 23).
//! 2. **Bandwidth** — measured interconnect utilization reaches 70% of
//!    peak: halt until it falls back to 50% (hysteresis).

use snake_sim::json::{self, Value};
use snake_sim::snapshot::SnapshotError;
use snake_sim::{Cycle, PrefetchContext};

/// Throttle configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleConfig {
    /// Master switch (Snake-DT/Snake-T disable it).
    pub enabled: bool,
    /// Cycles to pause after a space trigger (paper: 50).
    pub pause_cycles: u64,
    /// Utilization at which the bandwidth trigger halts (paper: 0.70).
    pub bw_halt: f64,
    /// Utilization at which the bandwidth trigger releases (paper: 0.50).
    pub bw_resume: f64,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            enabled: true,
            pause_cycles: 50,
            bw_halt: 0.70,
            bw_resume: 0.50,
        }
    }
}

/// Throttle state machine.
///
/// Besides halting, the throttle *controls the chain-walk depth*
/// (§3.2: "the depth of Inter-thread prefetching ... is controlled by
/// a throttling mechanism"): overruns halve the depth, sustained calm
/// grows it back toward the configured maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throttle {
    cfg: ThrottleConfig,
    space_halted_until: Cycle,
    bw_halted: bool,
    depth: usize,
    max_depth: usize,
    calm_events: u32,
}

impl Throttle {
    /// Creates a throttle.
    ///
    /// # Panics
    ///
    /// Panics if `bw_resume > bw_halt` (the hysteresis would invert).
    pub fn new(cfg: ThrottleConfig) -> Self {
        assert!(
            cfg.bw_resume <= cfg.bw_halt,
            "resume threshold must not exceed halt threshold"
        );
        Throttle {
            cfg,
            space_halted_until: Cycle::ZERO,
            bw_halted: false,
            depth: 2,
            max_depth: 16,
            calm_events: 0,
        }
    }

    /// Sets the maximum chain-walk depth the throttle may grow to.
    pub fn set_max_depth(&mut self, max_depth: usize) {
        self.max_depth = max_depth.max(1);
        self.depth = self.depth.min(self.max_depth);
    }

    /// The current throttling-controlled chain-walk depth. When the
    /// throttle is disabled (Snake-DT/Snake-T) the full configured
    /// depth is used unconditionally.
    pub fn depth(&self) -> usize {
        if self.cfg.enabled {
            self.depth
        } else {
            self.max_depth
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ThrottleConfig {
        &self.cfg
    }

    /// Updates triggers from the current machine state. Call on every
    /// prefetcher event.
    pub fn update(&mut self, ctx: &PrefetchContext) {
        if !self.cfg.enabled {
            return;
        }
        if ctx.prefetch_overrun {
            let until = ctx.cycle.plus(self.cfg.pause_cycles);
            if until > self.space_halted_until {
                self.space_halted_until = until;
            }
            // Outran consumption: back the chain depth off.
            self.depth = (self.depth / 2).max(1);
            self.calm_events = 0;
        } else {
            self.calm_events += 1;
            if self.calm_events >= 64 {
                self.depth = (self.depth + 1).min(self.max_depth);
                self.calm_events = 0;
            }
        }
        if self.bw_halted {
            if ctx.bw_utilization <= self.cfg.bw_resume {
                self.bw_halted = false;
            }
        } else if ctx.bw_utilization >= self.cfg.bw_halt {
            self.bw_halted = true;
        }
    }

    /// Whether prefetching is currently halted.
    pub fn is_throttled(&self, now: Cycle) -> bool {
        self.cfg.enabled && (self.bw_halted || now < self.space_halted_until)
    }

    /// Clears all state (kernel boundary).
    pub fn reset(&mut self) {
        self.space_halted_until = Cycle::ZERO;
        self.bw_halted = false;
        self.depth = 2;
        self.calm_events = 0;
    }

    /// Serializes the state machine for a checkpoint (the thresholds
    /// and `max_depth` are configuration and are not captured).
    pub fn save_state(&self) -> Value {
        Value::Obj(vec![
            (
                "space_halted_until".into(),
                Value::u64(self.space_halted_until.0),
            ),
            ("bw_halted".into(), Value::Bool(self.bw_halted)),
            ("depth".into(), Value::u64(self.depth as u64)),
            (
                "calm_events".into(),
                Value::u64(u64::from(self.calm_events)),
            ),
        ])
    }

    /// Restores state captured by [`Throttle::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when a field is missing or does not
    /// decode.
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let space_halted_until = Cycle(json::u64_field(v, "space_halted_until")?);
        let bw_halted = json::bool_field(v, "bw_halted")?;
        let depth = json::usize_field(v, "depth")?;
        let calm_events = json::u32_field(v, "calm_events")?;
        self.space_halted_until = space_halted_until;
        self.bw_halted = bw_halted;
        self.depth = depth.clamp(1, self.max_depth);
        self.calm_events = calm_events;
        Ok(())
    }
}

impl Default for Throttle {
    fn default() -> Self {
        Throttle::new(ThrottleConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cycle: u64, bw: f64, free: u32) -> PrefetchContext {
        PrefetchContext {
            cycle: Cycle(cycle),
            bw_utilization: bw,
            free_lines: free,
            total_lines: 128,
            // The simulator raises the overrun flag when the cache is
            // saturated and unused prefetches start dying.
            prefetch_overrun: free == 0,
            telemetry: false,
        }
    }

    #[test]
    fn space_trigger_halts_for_pause_window() {
        let mut t = Throttle::default();
        t.update(&ctx(100, 0.0, 0));
        assert!(t.is_throttled(Cycle(100)));
        assert!(t.is_throttled(Cycle(149)));
        assert!(!t.is_throttled(Cycle(150)));
    }

    #[test]
    fn bandwidth_trigger_has_hysteresis() {
        let mut t = Throttle::default();
        t.update(&ctx(0, 0.72, 64));
        assert!(t.is_throttled(Cycle(0)));
        // Falling to 0.6 is not enough to resume.
        t.update(&ctx(10, 0.60, 64));
        assert!(t.is_throttled(Cycle(10)));
        // 0.5 resumes.
        t.update(&ctx(20, 0.50, 64));
        assert!(!t.is_throttled(Cycle(20)));
    }

    #[test]
    fn disabled_throttle_never_halts() {
        let mut t = Throttle::new(ThrottleConfig {
            enabled: false,
            ..Default::default()
        });
        t.update(&ctx(0, 1.0, 0));
        assert!(!t.is_throttled(Cycle(0)));
    }

    #[test]
    fn repeated_space_triggers_extend_the_window() {
        let mut t = Throttle::default();
        t.update(&ctx(100, 0.0, 0));
        t.update(&ctx(120, 0.0, 0));
        assert!(t.is_throttled(Cycle(165)));
        assert!(!t.is_throttled(Cycle(170)));
    }

    #[test]
    #[should_panic(expected = "resume threshold")]
    fn inverted_hysteresis_rejected() {
        let _ = Throttle::new(ThrottleConfig {
            bw_halt: 0.4,
            bw_resume: 0.6,
            ..Default::default()
        });
    }

    #[test]
    fn reset_clears_halts() {
        let mut t = Throttle::default();
        t.update(&ctx(0, 0.9, 0));
        assert!(t.is_throttled(Cycle(1)));
        t.reset();
        assert!(!t.is_throttled(Cycle(1)));
    }
}
