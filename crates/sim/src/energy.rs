//! First-order energy model (the paper's AccelWattch substitution).
//!
//! Energy = static power × runtime + Σ (event count × event energy).
//! The paper's energy result (Fig 19) is first-order: Snake saves
//! energy mainly by shortening runtime (static energy) and by removing
//! repeated reservation-fail accesses, while paying a small premium
//! for prefetch traffic and the tables (6.4 pJ/access, 6 mW static —
//! §5.5). Those are exactly the terms modeled here.

use crate::config::GpuConfig;
use crate::stats::SimStats;

/// Per-event energies in picojoules and static power in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per warp instruction issued (execution pipeline).
    pub instr_pj: f64,
    /// Energy per L1 access (any outcome, including reservation fails —
    /// failed accesses still burn tag-lookup energy, one of the paper's
    /// motivation points).
    pub l1_access_pj: f64,
    /// Energy per L2 access.
    pub l2_access_pj: f64,
    /// Energy per DRAM line transfer.
    pub dram_access_pj: f64,
    /// Energy per interconnect byte.
    pub noc_byte_pj: f64,
    /// Energy per prefetcher-table access (the paper's 6.4 pJ).
    pub prefetcher_access_pj: f64,
    /// Device static power in watts, per SM.
    pub static_w_per_sm: f64,
    /// Prefetcher static power in watts, per SM (the paper's 6 mW).
    pub prefetcher_static_w: f64,
}

impl EnergyModel {
    /// Defaults loosely calibrated to a 12 nm datacenter GPU so that
    /// static energy dominates memory-bound runs (the regime of Fig 19).
    pub fn volta_like() -> Self {
        EnergyModel {
            instr_pj: 60.0,
            l1_access_pj: 150.0,
            l2_access_pj: 800.0,
            dram_access_pj: 4_000.0, // HBM2 ~3.9 pJ/bit x 128 B
            noc_byte_pj: 4.0,
            prefetcher_access_pj: 6.4,
            // Quasi-constant (leakage + clocking + idle-lane) power of a
            // datacenter GPU, amortized per SM: ~250 W / 80 SMs.
            static_w_per_sm: 3.0,
            prefetcher_static_w: 0.006,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::volta_like()
    }
}

/// Energy breakdown of a run, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Static (leakage + clock) energy over the runtime.
    pub static_j: f64,
    /// Execution pipeline energy.
    pub core_j: f64,
    /// L1 energy.
    pub l1_j: f64,
    /// L2 energy.
    pub l2_j: f64,
    /// DRAM energy.
    pub dram_j: f64,
    /// Interconnect energy.
    pub noc_j: f64,
    /// Prefetcher table energy (dynamic + static).
    pub prefetcher_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.static_j
            + self.core_j
            + self.l1_j
            + self.l2_j
            + self.dram_j
            + self.noc_j
            + self.prefetcher_j
    }
}

impl EnergyModel {
    /// Evaluates the model on a run's statistics.
    ///
    /// `has_prefetcher` enables the table costs (a baseline GPU carries
    /// no prefetcher hardware).
    pub fn evaluate(
        &self,
        stats: &SimStats,
        cfg: &GpuConfig,
        has_prefetcher: bool,
    ) -> EnergyBreakdown {
        let seconds = stats.cycles as f64 / (cfg.core_clock_mhz as f64 * 1e6);
        let pj = 1e-12;
        let l1_accesses = stats.l1.total_accesses() + stats.prefetch.issued + stats.stores;
        let l2_accesses = stats.l2_hits + stats.l2_misses;
        let prefetcher_accesses = if has_prefetcher {
            // One table access per observed demand load plus one per
            // generated request.
            stats.demand_loads + stats.prefetch.requested
        } else {
            0
        };
        EnergyBreakdown {
            static_j: self.static_w_per_sm * f64::from(cfg.num_sms) * seconds,
            core_j: stats.instructions as f64 * self.instr_pj * pj,
            l1_j: l1_accesses as f64 * self.l1_access_pj * pj,
            l2_j: l2_accesses as f64 * self.l2_access_pj * pj,
            dram_j: stats.l2_misses as f64 * self.dram_access_pj * pj,
            noc_j: (stats.noc_bytes_up + stats.noc_bytes_down) as f64 * self.noc_byte_pj * pj,
            prefetcher_j: if has_prefetcher {
                prefetcher_accesses as f64 * self.prefetcher_access_pj * pj
                    + self.prefetcher_static_w * f64::from(cfg.num_sms) * seconds
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CacheStats;

    fn stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            instructions: 1000,
            demand_loads: 500,
            l1: CacheStats {
                hits: 300,
                misses: 200,
                ..Default::default()
            },
            l2_hits: 100,
            l2_misses: 100,
            noc_bytes_up: 10_000,
            noc_bytes_down: 30_000,
            ..Default::default()
        }
    }

    #[test]
    fn shorter_runs_use_less_static_energy() {
        let m = EnergyModel::volta_like();
        let cfg = GpuConfig::scaled(2);
        let slow = m.evaluate(&stats(100_000), &cfg, false);
        let fast = m.evaluate(&stats(80_000), &cfg, false);
        assert!(fast.static_j < slow.static_j);
        assert!(fast.total_j() < slow.total_j());
    }

    #[test]
    fn prefetcher_hardware_costs_something_but_little() {
        let m = EnergyModel::volta_like();
        let cfg = GpuConfig::scaled(2);
        let s = stats(100_000);
        let without = m.evaluate(&s, &cfg, false);
        let with = m.evaluate(&s, &cfg, true);
        assert!(with.total_j() > without.total_j());
        let overhead = (with.total_j() - without.total_j()) / without.total_j();
        assert!(overhead < 0.01, "paper: <1% power overhead, got {overhead}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = EnergyModel::volta_like();
        let cfg = GpuConfig::scaled(1);
        let b = m.evaluate(&stats(1000), &cfg, true);
        let sum = b.static_j + b.core_j + b.l1_j + b.l2_j + b.dram_j + b.noc_j + b.prefetcher_j;
        assert!((b.total_j() - sum).abs() < 1e-18);
    }

    #[test]
    fn static_energy_dominates_memory_bound_runs() {
        let m = EnergyModel::volta_like();
        let cfg = GpuConfig::scaled(2);
        let b = m.evaluate(&stats(1_000_000), &cfg, false);
        assert!(b.static_j > 0.5 * b.total_j());
    }
}
