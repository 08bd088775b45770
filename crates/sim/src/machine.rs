//! The simulated host machine.
//!
//! Local query cost in the paper's dynamic environment is dominated by the
//! *combined net effect* of frequently-changing factors: CPU load, I/O
//! traffic and memory pressure from concurrent processes. The machine model
//! here turns a background [`Load`] into three
//! inflation factors:
//!
//! * **CPU factor** — round-robin time-slicing: with `n` CPU-hungry
//!   competitors a query receives `1/(1 + w·n)` of the CPU, so its CPU time
//!   stretches by `1 + w·n`.
//! * **I/O factor** — queueing at the disk: service time stretches linearly
//!   in the number of I/O-issuing competitors, then multiplies with the
//!   thrashing factor.
//! * **Thrashing factor** — once the resident sets of the background
//!   processes exceed physical memory, the machine starts paging and the
//!   effective cost explodes exponentially. This is what bends the curve of
//!   paper Figure 1 upward from ~3.8 s at 50 processes to ~124 s at 130.

use crate::contention::Load;

/// Static hardware description of a simulated host.
///
/// Defaults approximate the paper's late-90s SUN UltraSparc 2 workstation.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Physical memory in megabytes.
    pub phys_mem_mb: f64,
    /// Memory consumed by the OS plus the DBMS itself (MB).
    pub base_mem_mb: f64,
    /// Average resident set of one background process (MB).
    pub mem_per_proc_mb: f64,
    /// CPU stretch per CPU-bound competitor.
    pub cpu_weight: f64,
    /// I/O stretch per I/O-bound competitor.
    pub io_weight: f64,
    /// Exponential thrashing coefficient once memory runs out.
    pub thrash_coeff: f64,
    /// Fraction of physical memory at which thrashing sets in.
    pub thrash_onset: f64,
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec {
            phys_mem_mb: 512.0,
            base_mem_mb: 96.0,
            mem_per_proc_mb: 4.0,
            cpu_weight: 0.045,
            io_weight: 0.030,
            thrash_coeff: 11.0,
            thrash_onset: 0.90,
        }
    }
}

/// A simulated host: a spec plus the currently applied background load.
///
/// The inflation factors depend only on the two, so they are computed when
/// either changes ([`Self::set_load`], [`Self::set_spec`]), not on every
/// execution or statistics read.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    load: Load,
    factors: Factors,
}

/// The inflation factors of one spec under one load.
#[derive(Debug, Clone, Copy)]
struct Factors {
    cpu: f64,
    io: f64,
    thrash: f64,
}

impl Factors {
    fn of(spec: &MachineSpec, load: &Load) -> Factors {
        let over = (memory_fraction(spec, load) - spec.thrash_onset).max(0.0);
        let thrash = (spec.thrash_coeff * over).exp();
        let queueing = 1.0 + spec.io_weight * load.procs * load.io_intensity;
        Factors {
            cpu: 1.0 + spec.cpu_weight * load.procs * load.cpu_intensity,
            io: queueing * thrash,
            thrash,
        }
    }
}

/// Fraction of `spec`'s physical memory in use under `load`.
fn memory_fraction(spec: &MachineSpec, load: &Load) -> f64 {
    (spec.base_mem_mb + load.procs * spec.mem_per_proc_mb) / spec.phys_mem_mb
}

impl Machine {
    /// Creates a machine with the given spec and an idle load.
    pub fn new(spec: MachineSpec) -> Self {
        let load = Load::idle();
        Machine {
            factors: Factors::of(&spec, &load),
            spec,
            load,
        }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Replaces the spec — hardware changes (memory upgrades) are
    /// occasionally-changing environmental factors (paper §2).
    pub fn set_spec(&mut self, spec: MachineSpec) {
        self.factors = Factors::of(&spec, &self.load);
        self.spec = spec;
    }

    /// Replaces the background load (the load builder calls this).
    pub fn set_load(&mut self, load: Load) {
        self.factors = Factors::of(&self.spec, &load);
        self.load = load;
    }

    /// The background load currently applied.
    pub fn load(&self) -> &Load {
        &self.load
    }

    /// Fraction of physical memory in use (may exceed 1 under overload).
    pub fn memory_fraction(&self) -> f64 {
        memory_fraction(&self.spec, &self.load)
    }

    /// Multiplier applied to a foreground query's CPU time.
    pub fn cpu_factor(&self) -> f64 {
        self.factors.cpu
    }

    /// Multiplier applied to a foreground query's I/O time
    /// (queueing × thrashing).
    pub fn io_factor(&self) -> f64 {
        self.factors.io
    }

    /// The exponential paging penalty; 1.0 while memory suffices.
    pub fn thrash_factor(&self) -> f64 {
        self.factors.thrash
    }

    /// Converts a resource demand `(init_s, io_s, cpu_s)` measured on an
    /// idle machine into elapsed seconds under the current load.
    ///
    /// Initialization (opening cursors, process startup) is mostly CPU-bound
    /// and stretches with the CPU factor.
    pub fn elapsed(&self, init_s: f64, io_s: f64, cpu_s: f64) -> f64 {
        let (init, io, cpu) = self.elapsed_parts(init_s, io_s, cpu_s);
        init + io + cpu
    }

    /// The per-component breakdown of [`Self::elapsed`]: stretched
    /// `(init, io, cpu)` seconds under the current load. Telemetry uses
    /// this to attribute cost to components without re-deriving factors.
    pub fn elapsed_parts(&self, init_s: f64, io_s: f64, cpu_s: f64) -> (f64, f64, f64) {
        (
            init_s * self.cpu_factor(),
            io_s * self.io_factor(),
            cpu_s * self.cpu_factor(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::Load;

    fn loaded(procs: f64) -> Machine {
        let mut m = Machine::new(MachineSpec::default());
        m.set_load(Load::background(procs));
        m
    }

    #[test]
    fn idle_machine_has_unit_factors() {
        let m = Machine::new(MachineSpec::default());
        assert_eq!(m.cpu_factor(), 1.0);
        assert!((m.io_factor() - 1.0).abs() < 1e-9);
        assert_eq!(m.elapsed(1.0, 2.0, 3.0), 6.0);
    }

    #[test]
    fn factors_grow_monotonically_with_load() {
        let mut prev_io = 0.0;
        let mut prev_cpu = 0.0;
        for p in (0..140).step_by(10) {
            let m = loaded(p as f64);
            assert!(m.cpu_factor() >= prev_cpu);
            assert!(m.io_factor() >= prev_io);
            prev_cpu = m.cpu_factor();
            prev_io = m.io_factor();
        }
    }

    #[test]
    fn thrashing_kicks_in_superlinearly() {
        // Figure 1 shape: cost ratio between 130 and 50 processes should be
        // large (paper observed 124 s / 3.8 s ≈ 33×).
        let low = loaded(50.0);
        let high = loaded(130.0);
        let cost_low = low.elapsed(0.05, 1.0, 0.5);
        let cost_high = high.elapsed(0.05, 1.0, 0.5);
        let ratio = cost_high / cost_low;
        assert!(ratio > 10.0, "ratio only {ratio:.1}");
        // And the curve must be convex: marginal slowdown grows.
        let d1 = loaded(90.0).elapsed(0.05, 1.0, 0.5) - loaded(70.0).elapsed(0.05, 1.0, 0.5);
        let d2 = loaded(130.0).elapsed(0.05, 1.0, 0.5) - loaded(110.0).elapsed(0.05, 1.0, 0.5);
        assert!(d2 > d1);
    }

    #[test]
    fn no_thrashing_below_onset() {
        let m = loaded(20.0);
        assert!((m.thrash_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_fraction_accounts_for_base_usage() {
        let m = Machine::new(MachineSpec::default());
        assert!((m.memory_fraction() - 96.0 / 512.0).abs() < 1e-12);
    }

    /// The cached factors are the formulas' bits after every load and
    /// spec change.
    #[test]
    fn cached_factors_follow_load_and_spec() {
        let fresh = |spec: &MachineSpec, load: &Load| {
            let memory = (spec.base_mem_mb + load.procs * spec.mem_per_proc_mb) / spec.phys_mem_mb;
            let thrash = (spec.thrash_coeff * (memory - spec.thrash_onset).max(0.0)).exp();
            let queueing = 1.0 + spec.io_weight * load.procs * load.io_intensity;
            let cpu = 1.0 + spec.cpu_weight * load.procs * load.cpu_intensity;
            [cpu, queueing * thrash, thrash].map(f64::to_bits)
        };
        let cached =
            |m: &Machine| [m.cpu_factor(), m.io_factor(), m.thrash_factor()].map(f64::to_bits);
        let mut m = Machine::new(MachineSpec::default());
        assert_eq!(cached(&m), fresh(m.spec(), m.load()));
        for procs in [0.0, 37.5, 110.0, 140.0] {
            m.set_load(Load::background(procs));
            assert_eq!(cached(&m), fresh(m.spec(), m.load()));
            for phys in [256.0, 4096.0] {
                let spec = MachineSpec {
                    phys_mem_mb: phys,
                    ..m.spec().clone()
                };
                m.set_spec(spec);
                assert_eq!(cached(&m), fresh(m.spec(), m.load()));
            }
        }
    }

    #[test]
    fn intensity_scales_contention() {
        let mut m = Machine::new(MachineSpec::default());
        m.set_load(Load {
            procs: 40.0,
            cpu_intensity: 0.0,
            io_intensity: 1.0,
        });
        assert_eq!(m.cpu_factor(), 1.0);
        assert!(m.io_factor() > 1.0);
    }
}
