//! Typed units so that per-bit intensities, absolute energies and traffic
//! volumes cannot be mixed up.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Implements `Display` for a float newtype with a fixed unit suffix.
macro_rules! fmt_display_unit {
    ($unit:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{} {}", self.0, $unit)
        }
    };
}

/// A per-bit energy intensity in nanojoules per bit (nJ/bit) — the unit of
/// every γ and ψ in the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct EnergyPerBit(f64);

impl EnergyPerBit {
    /// Zero intensity.
    pub const ZERO: EnergyPerBit = EnergyPerBit(0.0);

    /// Creates an intensity from a nJ/bit value.
    pub fn from_nanojoules(nj_per_bit: f64) -> Self {
        Self(nj_per_bit)
    }

    /// The value in nJ/bit.
    pub fn as_nanojoules(self) -> f64 {
        self.0
    }

    /// Energy to move `traffic` at this intensity.
    pub fn energy_for(self, traffic: Traffic) -> Energy {
        // nJ/bit × bits → nJ → J
        Energy::from_joules(self.0 * traffic.as_bits() * 1e-9)
    }
}

impl Add for EnergyPerBit {
    type Output = EnergyPerBit;
    fn add(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self.0 + rhs.0)
    }
}

impl Sub for EnergyPerBit {
    type Output = EnergyPerBit;
    fn sub(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self.0 - rhs.0)
    }
}

impl Mul<f64> for EnergyPerBit {
    type Output = EnergyPerBit;
    fn mul(self, rhs: f64) -> EnergyPerBit {
        EnergyPerBit(self.0 * rhs)
    }
}

impl Mul<EnergyPerBit> for f64 {
    type Output = EnergyPerBit;
    fn mul(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self * rhs.0)
    }
}

impl Div<EnergyPerBit> for EnergyPerBit {
    type Output = f64;
    fn div(self, rhs: EnergyPerBit) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for EnergyPerBit {
    fn sum<I: Iterator<Item = EnergyPerBit>>(iter: I) -> Self {
        EnergyPerBit(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for EnergyPerBit {
    fmt_display_unit!("nJ/bit");
}

/// An absolute amount of energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy amount from joules.
    pub fn from_joules(joules: f64) -> Self {
        Self(joules)
    }

    /// The value in joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// The value in kilowatt-hours (1 kWh = 3.6 MJ) — convenient for
    /// human-readable carbon statements.
    pub fn as_kwh(self) -> f64 {
        self.0 / 3.6e6
    }

    /// The fractional saving of `self` relative to `baseline`
    /// (`1 − self/baseline`); `None` when the baseline is not positive.
    pub fn savings_vs(self, baseline: Energy) -> Option<f64> {
        (baseline.0 > 0.0).then(|| 1.0 - self.0 / baseline.0)
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Self {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    fmt_display_unit!("J");
}

/// A traffic volume, stored in bytes (the natural unit of the trace) but
/// convertible to bits (the natural unit of the energy models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Traffic(u64);

impl Traffic {
    /// Zero traffic.
    pub const ZERO: Traffic = Traffic(0);

    /// Creates a traffic volume from bytes.
    pub fn from_bytes(bytes: u64) -> Self {
        Self(bytes)
    }

    /// The volume in bytes.
    pub fn as_bytes(self) -> u64 {
        self.0
    }

    /// The volume in bits as `f64` (energy math is floating point anyway).
    pub fn as_bits(self) -> f64 {
        self.0 as f64 * 8.0
    }

    /// The volume in gigabytes.
    pub fn as_gigabytes(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Traffic) -> Traffic {
        Traffic(self.0.saturating_add(rhs.0))
    }
}

impl Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        Traffic(self.0 + rhs.0)
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        self.0 += rhs.0;
    }
}

impl Sum for Traffic {
    fn sum<I: Iterator<Item = Traffic>>(iter: I) -> Self {
        Traffic(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_for_traffic() {
        // 1 GB at 100 nJ/bit: 8e9 bits × 100e-9 J = 800 J.
        let e = EnergyPerBit::from_nanojoules(100.0).energy_for(Traffic::from_bytes(1_000_000_000));
        assert!((e.as_joules() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn per_bit_arithmetic() {
        let a = EnergyPerBit::from_nanojoules(2.0);
        let b = EnergyPerBit::from_nanojoules(3.0);
        assert_eq!((a + b).as_nanojoules(), 5.0);
        assert_eq!((b - a).as_nanojoules(), 1.0);
        assert_eq!((a * 2.0).as_nanojoules(), 4.0);
        assert_eq!((2.0 * a).as_nanojoules(), 4.0);
        assert!((b / a - 1.5).abs() < 1e-15);
        let total: EnergyPerBit = [a, b].into_iter().sum();
        assert_eq!(total.as_nanojoules(), 5.0);
    }

    #[test]
    fn energy_savings_vs_baseline() {
        let hybrid = Energy::from_joules(60.0);
        let baseline = Energy::from_joules(100.0);
        assert!((hybrid.savings_vs(baseline).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(hybrid.savings_vs(Energy::ZERO), None);
    }

    #[test]
    fn energy_accumulation() {
        let mut acc = Energy::ZERO;
        acc += Energy::from_joules(1.5);
        acc += Energy::from_joules(2.5);
        assert_eq!(acc.as_joules(), 4.0);
        let total: Energy = vec![acc, Energy::from_joules(1.0)].into_iter().sum();
        assert_eq!(total.as_joules(), 5.0);
    }

    #[test]
    fn kwh_conversion() {
        assert!((Energy::from_joules(3.6e6).as_kwh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_units() {
        let t = Traffic::from_bytes(1_500);
        assert_eq!(t.as_bytes(), 1_500);
        assert_eq!(t.as_bits(), 12_000.0);
        let sum: Traffic = [t, Traffic::from_bytes(500)].into_iter().sum();
        assert_eq!(sum.as_bytes(), 2_000);
        assert_eq!(
            Traffic::from_bytes(u64::MAX).saturating_add(t).as_bytes(),
            u64::MAX
        );
    }

    #[test]
    fn displays_have_units() {
        assert_eq!(EnergyPerBit::from_nanojoules(1.5).to_string(), "1.5 nJ/bit");
        assert_eq!(Energy::from_joules(2.0).to_string(), "2 J");
        assert_eq!(Traffic::from_bytes(3).to_string(), "3 B");
    }
}
