//! Per-phase simulated clocks.
//!
//! The paper reports runtime *breakdowns* over the five matvec phases
//! (Figure 2/3) plus communication (Figure 4). [`PhaseTimes`] accumulates
//! modeled seconds per [`Phase`] and supports the two combinations the
//! distributed simulation needs: `max` across ranks (phases are bulk-
//! synchronous) and `add` across sequential stages.

use core::fmt;

/// The computational phases of the FFTMatvec algorithm (Section 2.4), plus
/// communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1: broadcast + zero-pad (includes fused casts).
    Pad,
    /// Phase 2: batched forward FFT of the input vector.
    Fft,
    /// Phase 3: frequency-domain strided batched GEMV (includes the
    /// TOSI↔SOTI reorderings, matching the paper's timing convention).
    Sbgemv,
    /// Phase 4: batched inverse FFT of the output vector.
    Ifft,
    /// Phase 5: unpad + reduction (includes fused casts).
    Unpad,
    /// Inter-GPU communication (broadcast/reduce) and host-link transfers.
    Comm,
}

impl Phase {
    /// The five compute phases in pipeline order (the figures' legend).
    pub const COMPUTE: [Phase; 5] =
        [Phase::Pad, Phase::Fft, Phase::Sbgemv, Phase::Ifft, Phase::Unpad];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Pad => "Pad",
            Phase::Fft => "FFT",
            Phase::Sbgemv => "SBGEMV",
            Phase::Ifft => "IFFT",
            Phase::Unpad => "Unpad",
            Phase::Comm => "Comm",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Pad => 0,
            Phase::Fft => 1,
            Phase::Sbgemv => 2,
            Phase::Ifft => 3,
            Phase::Unpad => 4,
            Phase::Comm => 5,
        }
    }
}

/// Accumulated simulated seconds per phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    times: [f64; 6],
}

impl PhaseTimes {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` to a phase.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative phase time");
        self.times[phase.index()] += seconds;
    }

    /// Seconds accumulated in one phase.
    pub fn get(&self, phase: Phase) -> f64 {
        self.times[phase.index()]
    }

    /// Total matvec time: compute phases + communication.
    pub fn total(&self) -> f64 {
        Phase::COMPUTE.iter().map(|&p| self.get(p)).sum::<f64>() + self.get(Phase::Comm)
    }

    /// Total over the five compute phases only.
    pub fn compute_total(&self) -> f64 {
        Phase::COMPUTE.iter().map(|&p| self.get(p)).sum()
    }

    /// Element-wise maximum — combining bulk-synchronous ranks.
    pub fn max_with(&mut self, other: &PhaseTimes) {
        for (a, b) in self.times.iter_mut().zip(&other.times) {
            *a = a.max(*b);
        }
    }

    /// Element-wise sum — sequential composition.
    pub fn add_with(&mut self, other: &PhaseTimes) {
        for (a, b) in self.times.iter_mut().zip(&other.times) {
            *a += *b;
        }
    }

    /// Fraction of the total spent in one phase (0 if total is 0).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(phase) / t
        }
    }

    /// Reset all phases to zero.
    pub fn clear(&mut self) {
        self.times = [0.0; 6];
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &p in &Phase::COMPUTE {
            write!(f, "{}={:.3}ms ", p.label(), self.get(p) * 1e3)?;
        }
        if self.get(Phase::Comm) > 0.0 {
            write!(f, "Comm={:.3}ms ", self.get(Phase::Comm) * 1e3)?;
        }
        write!(f, "total={:.3}ms", self.total() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_total() {
        let mut t = PhaseTimes::new();
        t.add(Phase::Sbgemv, 1.0e-3);
        t.add(Phase::Sbgemv, 0.5e-3);
        t.add(Phase::Fft, 0.1e-3);
        assert!((t.get(Phase::Sbgemv) - 1.5e-3).abs() < 1e-15);
        assert!((t.total() - 1.6e-3).abs() < 1e-15);
        assert!((t.compute_total() - 1.6e-3).abs() < 1e-15);
    }

    #[test]
    fn comm_counts_toward_total_not_compute() {
        let mut t = PhaseTimes::new();
        t.add(Phase::Comm, 2.0e-3);
        t.add(Phase::Pad, 1.0e-3);
        assert!((t.total() - 3.0e-3).abs() < 1e-15);
        assert!((t.compute_total() - 1.0e-3).abs() < 1e-15);
    }

    #[test]
    fn rank_combination_is_max() {
        let mut a = PhaseTimes::new();
        a.add(Phase::Sbgemv, 2.0);
        a.add(Phase::Fft, 1.0);
        let mut b = PhaseTimes::new();
        b.add(Phase::Sbgemv, 1.0);
        b.add(Phase::Fft, 3.0);
        a.max_with(&b);
        assert_eq!(a.get(Phase::Sbgemv), 2.0);
        assert_eq!(a.get(Phase::Fft), 3.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut t = PhaseTimes::new();
        for (i, &p) in Phase::COMPUTE.iter().enumerate() {
            t.add(p, (i + 1) as f64);
        }
        let s: f64 = Phase::COMPUTE.iter().map(|&p| t.fraction(p)).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_readable() {
        let mut t = PhaseTimes::new();
        t.add(Phase::Sbgemv, 1.5e-3);
        let s = format!("{t}");
        assert!(s.contains("SBGEMV=1.500ms"));
        assert!(s.contains("total="));
    }

    #[test]
    fn clear_resets() {
        let mut t = PhaseTimes::new();
        t.add(Phase::Pad, 1.0);
        t.clear();
        assert_eq!(t.total(), 0.0);
    }
}
