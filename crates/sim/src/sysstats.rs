//! Unix-style system statistics (paper Table 1).
//!
//! The paper lists the statistics `vmstat`/`iostat`/`sar` expose on a
//! dynamic Solaris host — run-queue lengths, CPU percentages, memory and
//! swap usage, I/O rates. The probing-cost *estimation* approach (§3.3,
//! eq. (2)) regresses the probing query's cost on a few of these
//! ("such as CPU load, I/O utilization, and size of used memory space")
//! so the contention state can be determined without actually executing
//! the probe.
//!
//! [`SystemStats::observe`] derives a noisy snapshot from the simulated
//! machine, mimicking what an environment monitor would read. A
//! [`DeferredStats`] records what such a reading depends on, so a caller
//! that may never need the snapshot pays for its noise only when it reads
//! it.

use crate::contention::Load;
use crate::machine::{Machine, MachineSpec};
use mdbs_stats::rng::Rng;

/// Generator outputs [`SystemStats::observe`] consumes: two per Gaussian
/// jitter, one jitter per statistic.
pub(crate) const OBSERVE_DRAWS: usize = 16;

/// A snapshot of the frequently-changing environmental statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// Number of processes in the run queue (cf. `r` in vmstat).
    pub running_procs: f64,
    /// 1-minute load average.
    pub load_avg_1m: f64,
    /// Percentage of CPU time spent in user+system (0–100).
    pub cpu_busy_pct: f64,
    /// Physical reads+writes per second (cf. iostat).
    pub io_per_sec: f64,
    /// Percentage of disk utilization (0–100).
    pub disk_util_pct: f64,
    /// Used memory in megabytes.
    pub mem_used_mb: f64,
    /// Used swap in megabytes.
    pub swap_used_mb: f64,
    /// Pages swapped in per second.
    pub swap_in_per_sec: f64,
}

impl SystemStats {
    /// Reads the statistics off a machine, with measurement noise.
    ///
    /// The mapping is intentionally *indirect* (saturating, noisy): the
    /// method must not be able to read the true process count straight off
    /// a counter, because on real hardware it cannot.
    pub fn observe(machine: &Machine, rng: &mut Rng) -> SystemStats {
        let load = machine.load();
        let spec = machine.spec();
        let procs = load.procs;
        let mem_used = (spec.base_mem_mb + procs * spec.mem_per_proc_mb).min(spec.phys_mem_mb);
        let over_mem =
            (spec.base_mem_mb + procs * spec.mem_per_proc_mb - spec.phys_mem_mb).max(0.0);
        let cpu_busy = 100.0 * (1.0 - 1.0 / machine.cpu_factor());
        let disk_util = 100.0 * (1.0 - 1.0 / machine.io_factor());
        let jitter = |rng: &mut Rng, v: f64, rel: f64| (v * rng.normal(1.0, rel)).max(0.0);
        SystemStats {
            running_procs: jitter(rng, procs * load.cpu_intensity * 0.6, 0.08),
            load_avg_1m: jitter(rng, procs * 0.05 * load.cpu_intensity, 0.05),
            cpu_busy_pct: jitter(rng, cpu_busy, 0.04).min(100.0),
            io_per_sec: jitter(rng, 20.0 + procs * load.io_intensity * 2.5, 0.06),
            disk_util_pct: jitter(rng, disk_util, 0.04).min(100.0),
            mem_used_mb: jitter(rng, mem_used, 0.02).min(spec.phys_mem_mb),
            swap_used_mb: jitter(rng, over_mem, 0.05),
            swap_in_per_sec: jitter(rng, over_mem * (machine.thrash_factor() - 1.0) * 0.5, 0.10),
        }
    }

    /// The explanatory vector used by probing-cost estimation (eq. (2)):
    /// CPU load, I/O utilization, used memory and swap traffic.
    pub fn probe_predictors(&self) -> [f64; 4] {
        [
            self.load_avg_1m,
            self.disk_util_pct,
            self.mem_used_mb,
            self.swap_in_per_sec,
        ]
    }

    /// Human-readable names aligned with [`Self::probe_predictors`].
    pub fn probe_predictor_names() -> &'static [&'static str] {
        &[
            "load_avg_1m",
            "disk_util_pct",
            "mem_used_mb",
            "swap_in_per_sec",
        ]
    }
}

/// A monitor reading taken but not yet evaluated: the load the machine
/// was under and the generator position its noise starts at. Taking one
/// costs a copy and 16 generator steps, with no `ln`, `cos`
/// or `sqrt`; [`Self::read`] later evaluates the same snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeferredStats {
    load: Load,
    rng: Rng,
}

impl DeferredStats {
    /// Records a reading of `machine` whose noise is drawn from `rng`, and
    /// moves `rng` past the draws [`SystemStats::observe`] would make.
    pub(crate) fn take(machine: &Machine, rng: &mut Rng) -> DeferredStats {
        let reading = DeferredStats {
            load: machine.load().clone(),
            rng: rng.clone(),
        };
        rng.skip(OBSERVE_DRAWS);
        reading
    }

    /// The snapshot, for a machine of `spec` (the one the reading was
    /// taken on): bit for bit what [`SystemStats::observe`] returned then.
    pub fn read(&self, spec: &MachineSpec) -> SystemStats {
        let machine = Machine::loaded(spec.clone(), self.load.clone());
        SystemStats::observe(&machine, &mut self.rng.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_with(procs: f64) -> Machine {
        let mut m = Machine::new(MachineSpec::default());
        m.set_load(Load::background(procs));
        m
    }

    #[test]
    fn idle_machine_reads_low() {
        let mut rng = Rng::seed_from_u64(1);
        let s = SystemStats::observe(&machine_with(0.0), &mut rng);
        assert!(s.cpu_busy_pct < 1.0);
        assert!(s.swap_used_mb == 0.0);
        assert!(s.running_procs < 1.0);
    }

    #[test]
    fn stats_grow_with_load() {
        let mut rng = Rng::seed_from_u64(2);
        let avg = |procs: f64, rng: &mut Rng| {
            let m = machine_with(procs);
            let draws: Vec<SystemStats> = (0..50).map(|_| SystemStats::observe(&m, rng)).collect();
            (
                draws.iter().map(|s| s.cpu_busy_pct).sum::<f64>() / 50.0,
                draws.iter().map(|s| s.io_per_sec).sum::<f64>() / 50.0,
                draws.iter().map(|s| s.mem_used_mb).sum::<f64>() / 50.0,
            )
        };
        let lo = avg(20.0, &mut rng);
        let hi = avg(100.0, &mut rng);
        assert!(hi.0 > lo.0);
        assert!(hi.1 > lo.1);
        assert!(hi.2 > lo.2);
    }

    #[test]
    fn swap_activity_only_under_memory_pressure() {
        let mut rng = Rng::seed_from_u64(3);
        let calm = SystemStats::observe(&machine_with(30.0), &mut rng);
        assert_eq!(calm.swap_in_per_sec, 0.0);
        let thrashing = SystemStats::observe(&machine_with(130.0), &mut rng);
        assert!(thrashing.swap_in_per_sec > 0.0);
        assert!(thrashing.swap_used_mb > 0.0);
    }

    #[test]
    fn percentages_are_bounded() {
        let mut rng = Rng::seed_from_u64(4);
        for procs in [0.0, 50.0, 200.0] {
            let s = SystemStats::observe(&machine_with(procs), &mut rng);
            assert!((0.0..=100.0).contains(&s.cpu_busy_pct));
            assert!((0.0..=100.0).contains(&s.disk_util_pct));
        }
    }

    #[test]
    fn a_deferred_reading_reads_what_observe_returned() {
        for procs in [0.0, 40.0, 130.0] {
            let machine = machine_with(procs);
            let mut eager = Rng::seed_from_u64(6);
            let mut deferred = eager.clone();
            let reading = DeferredStats::take(&machine, &mut deferred);
            let s = SystemStats::observe(&machine, &mut eager);
            assert_eq!(eager, deferred, "generator positions differ");
            let r = reading.read(machine.spec());
            assert_eq!(
                s.probe_predictors().map(f64::to_bits),
                r.probe_predictors().map(f64::to_bits)
            );
            assert_eq!(format!("{s:?}"), format!("{r:?}"));
        }
    }

    #[test]
    fn predictor_vector_matches_names() {
        let mut rng = Rng::seed_from_u64(5);
        let s = SystemStats::observe(&machine_with(10.0), &mut rng);
        assert_eq!(
            s.probe_predictors().len(),
            SystemStats::probe_predictor_names().len()
        );
    }
}
