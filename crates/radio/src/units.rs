//! Decibel newtypes and conversions.
//!
//! The paper quotes SNR thresholds in dB (`-10 dB` to `-25 dB`, `-40 dB`
//! in Fig. 3(c)); all internal math uses linear ratios. These newtypes keep
//! the two scales from being mixed up (a classic source of silent bugs in
//! link-budget code).

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A dimensionless power *ratio* expressed in decibels.
///
/// `Db(x)` represents the linear ratio `10^(x/10)`.
///
/// # Example
/// ```
/// use sag_radio::units::Db;
/// let beta = Db::new(-15.0);
/// assert!((beta.to_linear() - 0.0316227766).abs() < 1e-9);
/// assert!((Db::from_linear(2.0).value() - 3.0103).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(f64);

/// An absolute power level in dBm (decibels relative to one milliwatt).
///
/// `DbMilliwatt(x)` represents `10^(x/10)` milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DbMilliwatt(f64);

impl Db {
    /// Creates a dB value.
    ///
    /// # Panics
    /// Panics if `value` is NaN (infinities are allowed: `-inf dB` is a
    /// zero ratio).
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "dB value must not be NaN");
        Db(value)
    }

    /// The underlying dB figure.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to the linear ratio `10^(dB/10)`.
    #[inline]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Converts a linear ratio to dB.
    ///
    /// # Panics
    /// Panics if `ratio` is negative or NaN; `ratio == 0` maps to `-inf dB`.
    pub fn from_linear(ratio: f64) -> Self {
        assert!(
            ratio >= 0.0 && !ratio.is_nan(),
            "ratio must be ≥ 0, got {ratio}"
        );
        Db(10.0 * ratio.log10())
    }
}

impl DbMilliwatt {
    /// Creates a dBm value.
    ///
    /// # Panics
    /// Panics if `value` is NaN.
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "dBm value must not be NaN");
        DbMilliwatt(value)
    }

    /// The underlying dBm figure.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to milliwatts.
    #[inline]
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Converts a power in milliwatts to dBm.
    ///
    /// # Panics
    /// Panics if `mw` is negative or NaN; `mw == 0` maps to `-inf dBm`.
    pub fn from_milliwatts(mw: f64) -> Self {
        assert!(
            mw >= 0.0 && !mw.is_nan(),
            "milliwatts must be ≥ 0, got {mw}"
        );
        DbMilliwatt(10.0 * mw.log10())
    }
}

// Adding a ratio (Db) to an absolute level (DbMilliwatt) yields an absolute
// level; subtracting two absolute levels yields a ratio. These are the only
// physically meaningful arithmetic combinations, so only they are provided.

impl Add<Db> for DbMilliwatt {
    type Output = DbMilliwatt;
    fn add(self, gain: Db) -> DbMilliwatt {
        DbMilliwatt(self.0 + gain.0)
    }
}

impl Sub<Db> for DbMilliwatt {
    type Output = DbMilliwatt;
    fn sub(self, loss: Db) -> DbMilliwatt {
        DbMilliwatt(self.0 - loss.0)
    }
}

impl Sub for DbMilliwatt {
    type Output = Db;
    fn sub(self, other: DbMilliwatt) -> Db {
        Db(self.0 - other.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, other: Db) -> Db {
        Db(self.0 + other.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, other: Db) -> Db {
        Db(self.0 - other.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl fmt::Display for DbMilliwatt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn known_conversions() {
        assert!((Db::new(0.0).to_linear() - 1.0).abs() < 1e-12);
        assert!((Db::new(10.0).to_linear() - 10.0).abs() < 1e-9);
        assert!((Db::new(-10.0).to_linear() - 0.1).abs() < 1e-12);
        assert!((Db::new(3.0).to_linear() - 1.9952623).abs() < 1e-6);
        assert!((Db::new(-15.0).to_linear() - 0.03162278).abs() < 1e-7);
    }

    #[test]
    fn dbm_conversions() {
        assert!((DbMilliwatt::new(0.0).to_milliwatts() - 1.0).abs() < 1e-12);
        assert!((DbMilliwatt::new(30.0).to_milliwatts() - 1000.0).abs() < 1e-6);
        assert!((DbMilliwatt::from_milliwatts(100.0).value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_ratio_is_negative_infinity() {
        assert_eq!(Db::from_linear(0.0).value(), f64::NEG_INFINITY);
        assert_eq!(DbMilliwatt::from_milliwatts(0.0).to_milliwatts(), 0.0);
    }

    #[test]
    fn arithmetic_combinations() {
        let tx = DbMilliwatt::new(20.0); // 100 mW
        let loss = Db::new(15.0);
        assert!(((tx - loss).value() - 5.0).abs() < 1e-12);
        assert!(((tx + Db::new(3.0)).value() - 23.0).abs() < 1e-12);
        let rx = DbMilliwatt::new(-70.0);
        assert!(((tx - rx).value() - 90.0).abs() < 1e-12);
        assert!(((Db::new(3.0) + Db::new(4.0)).value() - 7.0).abs() < 1e-12);
        assert!(((Db::new(3.0) - Db::new(4.0)).value() + 1.0).abs() < 1e-12);
        assert!(((-Db::new(3.0)).value() + 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn nan_db_panics() {
        Db::new(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn negative_ratio_panics() {
        Db::from_linear(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Db::new(-15.0)), "-15.00 dB");
        assert_eq!(format!("{}", DbMilliwatt::new(30.0)), "30.00 dBm");
    }

    prop! {
        fn prop_roundtrip_db(x in -200.0..200.0f64) {
            let db = Db::new(x);
            let back = Db::from_linear(db.to_linear());
            prop_assert!((back.value() - x).abs() < 1e-9);
        }

        fn prop_roundtrip_dbm(x in -200.0..200.0f64) {
            let dbm = DbMilliwatt::new(x);
            let back = DbMilliwatt::from_milliwatts(dbm.to_milliwatts());
            prop_assert!((back.value() - x).abs() < 1e-9);
        }

        fn prop_monotone(a in -100.0..100.0f64, b in -100.0..100.0f64) {
            prop_assume!(a < b);
            prop_assert!(Db::new(a).to_linear() < Db::new(b).to_linear());
        }
    }
}
