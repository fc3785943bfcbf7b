//! CTA-aware prefetcher (Koo et al. \[25\]): learns the fixed stride
//! between the base addresses of successive CTAs for each load PC and
//! prefetches for *future CTAs*, trading detection time for
//! timeliness. The paper reports it as the most accurate prior
//! mechanism but with low coverage because inter-CTA stride detection
//! takes a while (§2, §5.1).

use std::collections::HashMap;

use snake_sim::json::{self, Value};
use snake_sim::snapshot::{self, SnapshotError};
use snake_sim::{
    AccessEvent, Address, CtaId, KernelTrace, Pc, PrefetchContext, PrefetchRequest, Prefetcher,
};

#[derive(Debug, Clone)]
struct PcEntry {
    /// First address observed per CTA (insertion-ordered).
    cta_bases: Vec<(CtaId, Address)>,
    /// Committed inter-CTA stride.
    stride: Option<i64>,
    stamp: u64,
}

/// The CTA-aware prefetcher.
#[derive(Debug, Clone)]
pub struct CtaAware {
    table: HashMap<Pc, PcEntry>,
    capacity: usize,
    /// Future CTAs covered per trigger.
    degree: u32,
    /// Consistent CTA pairs required before committing a stride.
    confirm_pairs: usize,
    seq: u64,
}

impl CtaAware {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(capacity: usize, degree: u32, confirm_pairs: usize) -> Self {
        assert!(capacity > 0 && degree > 0 && confirm_pairs > 0);
        CtaAware {
            table: HashMap::with_capacity(capacity),
            capacity,
            degree,
            confirm_pairs,
            seq: 0,
        }
    }
}

impl Default for CtaAware {
    fn default() -> Self {
        CtaAware::new(64, 1, 2)
    }
}

impl Prefetcher for CtaAware {
    fn name(&self) -> &str {
        "cta-aware"
    }

    fn on_kernel_launch(&mut self, _trace: &KernelTrace) {
        self.table.clear();
        self.seq = 0;
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        _ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.seq += 1;
        let stamp = self.seq;
        if self.table.len() >= self.capacity && !self.table.contains_key(&event.pc) {
            if let Some(&key) = self
                .table
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                self.table.remove(&key);
            }
        }
        let confirm_pairs = self.confirm_pairs;
        let e = self.table.entry(event.pc).or_insert(PcEntry {
            cta_bases: Vec::new(),
            stride: None,
            stamp,
        });
        e.stamp = stamp;

        // Record the first access each CTA makes through this PC.
        if !e.cta_bases.iter().any(|(c, _)| *c == event.cta) {
            e.cta_bases.push((event.cta, event.addr));
            if e.cta_bases.len() > 8 {
                e.cta_bases.remove(0);
            }
            // Derive the per-CTA stride from successive CTA bases.
            if e.cta_bases.len() > confirm_pairs {
                let mut per_cta: Option<i64> = None;
                let mut consistent = true;
                for pair in e.cta_bases.windows(2) {
                    let (c0, a0) = pair[0];
                    let (c1, a1) = pair[1];
                    let dc = i64::from(c1.0) - i64::from(c0.0);
                    if dc == 0 || a1.stride_from(a0) % dc != 0 {
                        consistent = false;
                        break;
                    }
                    let s = a1.stride_from(a0) / dc;
                    if per_cta.get_or_insert(s) != &s {
                        consistent = false;
                        break;
                    }
                }
                e.stride = if consistent { per_cta } else { None };
            }
        }

        if let Some(s) = e.stride {
            // Prefetch the corresponding access of the next CTA(s).
            // CTAs on one SM are `cta_step` apart (round-robin over
            // SMs); the learned stride is per CTA-id unit.
            for k in 1..=i64::from(self.degree) {
                out.push(PrefetchRequest::new(event.addr.offset(s * k)));
            }
        }
    }

    /// The table, serialized sorted by PC for byte-identical
    /// checkpoints regardless of `HashMap` iteration order. Per-CTA
    /// base lists keep their insertion order (it is
    /// detection-meaningful).
    fn save_state(&self) -> Value {
        let mut rows: Vec<_> = self.table.iter().collect();
        rows.sort_by_key(|(pc, _)| pc.0);
        let rows = rows
            .into_iter()
            .map(|(pc, e)| {
                let bases = e
                    .cta_bases
                    .iter()
                    .map(|(c, a)| Value::Arr(vec![Value::u64(u64::from(c.0)), Value::u64(a.raw())]))
                    .collect();
                Value::Arr(vec![
                    Value::u64(u64::from(pc.0)),
                    Value::Arr(bases),
                    e.stride.map_or(Value::Null, snapshot::i64_value),
                    Value::u64(e.stamp),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("table".into(), Value::Arr(rows)),
            ("seq".into(), Value::u64(self.seq)),
        ])
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let bad = || SnapshotError::malformed("cta-aware table row does not decode");
        let seq = json::u64_field(v, "seq")?;
        let mut table = HashMap::with_capacity(self.capacity);
        for row in json::arr_field(v, "table")? {
            let Some([pc, bases, stride, stamp]) = row.as_arr() else {
                return Err(bad());
            };
            let mut cta_bases = Vec::new();
            for b in bases.as_arr().ok_or_else(bad)? {
                let Some([c, a]) = b.as_arr() else {
                    return Err(bad());
                };
                cta_bases.push((
                    CtaId(c.as_u32().ok_or_else(bad)?),
                    Address(a.as_u64().ok_or_else(bad)?),
                ));
            }
            let stride = match stride {
                Value::Null => None,
                other => Some(other.as_i64().ok_or_else(bad)?),
            };
            table.insert(
                Pc(pc.as_u32().ok_or_else(bad)?),
                PcEntry {
                    cta_bases,
                    stride,
                    stamp: stamp.as_u64().ok_or_else(bad)?,
                },
            );
        }
        if table.len() > self.capacity {
            return Err(SnapshotError::malformed(
                "cta-aware checkpoint exceeds table capacity",
            ));
        }
        self.table = table;
        self.seq = seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{AccessOutcome, Cycle, SmId, WarpId};

    fn ev(cta: u32, warp: u32, pc: u32, addr: u64) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(warp),
            cta: CtaId(cta),
            pc: Pc(pc),
            addr: Address(addr),
            outcome: AccessOutcome::Miss,
            cycle: Cycle(0),
        }
    }

    fn ctx() -> PrefetchContext {
        PrefetchContext {
            cycle: Cycle(0),
            bw_utilization: 0.0,
            free_lines: 8,
            total_lines: 16,
            prefetch_overrun: false,
            telemetry: false,
        }
    }

    #[test]
    fn learns_inter_cta_stride_after_three_ctas() {
        let mut p = CtaAware::default();
        let mut out = Vec::new();
        // CTA bases 0, 64k, 128k (per-CTA stride 64k).
        for c in 0..3u32 {
            out.clear();
            p.on_demand_access(&ev(c, c * 4, 1, 65_536 * u64::from(c)), &ctx(), &mut out);
        }
        assert_eq!(out, vec![PrefetchRequest::new(Address(3 * 65_536))]);
    }

    #[test]
    fn later_warps_of_a_cta_prefetch_for_next_cta() {
        let mut p = CtaAware::default();
        let mut out = Vec::new();
        for c in 0..3u32 {
            p.on_demand_access(&ev(c, c * 4, 1, 65_536 * u64::from(c)), &ctx(), &mut out);
        }
        out.clear();
        // Another warp of CTA 2 accesses its own offset; it covers the
        // corresponding offset of CTA 3.
        p.on_demand_access(&ev(2, 9, 1, 2 * 65_536 + 512), &ctx(), &mut out);
        assert_eq!(out, vec![PrefetchRequest::new(Address(3 * 65_536 + 512))]);
    }

    #[test]
    fn irregular_cta_bases_never_commit() {
        let mut p = CtaAware::default();
        let mut out = Vec::new();
        for (c, a) in [(0u32, 0u64), (1, 65_536), (2, 200_000), (3, 300_000)] {
            p.on_demand_access(&ev(c, c, 1, a), &ctx(), &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn nonadjacent_cta_ids_supported() {
        // Round-robin over 2 SMs: one SM sees CTAs 0, 2, 4.
        let mut p = CtaAware::default();
        let mut out = Vec::new();
        for c in [0u32, 2, 4] {
            out.clear();
            p.on_demand_access(&ev(c, c, 1, 1000 * u64::from(c)), &ctx(), &mut out);
        }
        // Per-CTA-unit stride 1000; next unit for CTA 4 base = 5000.
        assert_eq!(out, vec![PrefetchRequest::new(Address(5000))]);
    }
}
