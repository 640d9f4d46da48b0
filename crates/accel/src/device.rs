//! FPGA device description and the silicon-area conversion of Table I.
//!
//! The paper quantifies accelerator size as estimated silicon area in mm²,
//! using per-block areas derived from published figures for similar devices
//! (footnote 1 and Table I): a CLB is 0.0044 mm², a 36-Kbit BRAM 0.026 mm²
//! (6 CLB-equivalents) and a DSP 0.044 mm² (10 CLB-equivalents); the target
//! Zynq UltraScale+ totals 64,922 CLB-equivalents ≈ 286 mm².

use std::fmt;
use std::ops::Add;

/// FPGA resource vector: configurable logic blocks, 36-Kbit block RAMs, DSPs.
///
/// # Examples
///
/// ```
/// use codesign_accel::ResourceUsage;
///
/// let a = ResourceUsage { clbs: 100, brams: 2, dsps: 5 };
/// let b = ResourceUsage { clbs: 50, brams: 1, dsps: 0 };
/// let c = a + b;
/// assert_eq!(c.clbs, 150);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResourceUsage {
    /// Configurable logic blocks.
    pub clbs: u64,
    /// 36-Kbit block RAMs.
    pub brams: u64,
    /// DSP slices.
    pub dsps: u64,
}

impl ResourceUsage {
    /// The all-zero usage.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// CLB-equivalent count using Table I's relative areas (BRAM = 6, DSP = 10).
    #[must_use]
    pub fn clb_equivalents(&self) -> u64 {
        self.clbs + 6 * self.brams + 10 * self.dsps
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;

    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            clbs: self.clbs + rhs.clbs,
            brams: self.brams + rhs.brams,
            dsps: self.dsps + rhs.dsps,
        }
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} CLB / {} BRAM / {} DSP",
            self.clbs, self.brams, self.dsps
        )
    }
}

/// A target FPGA: per-block silicon areas (Table I) plus resource budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaDevice {
    /// Silicon area of one CLB tile, mm².
    pub clb_area_mm2: f64,
    /// Silicon area of one BRAM36 tile, mm².
    pub bram_area_mm2: f64,
    /// Silicon area of one DSP tile, mm².
    pub dsp_area_mm2: f64,
    /// CLBs available on the device.
    pub clb_budget: u64,
    /// BRAM36s available.
    pub bram_budget: u64,
    /// DSPs available.
    pub dsp_budget: u64,
}

/// The Zynq UltraScale+ device of Table I, the one device every model
/// prices: 64,922 CLB-equivalents, ≈ 286 mm².
pub const DEVICE: FpgaDevice = FpgaDevice {
    clb_area_mm2: 0.0044,
    bram_area_mm2: 0.026,
    dsp_area_mm2: 0.044,
    clb_budget: 34_250,
    bram_budget: 912,
    dsp_budget: 2_520,
};

impl FpgaDevice {
    /// Estimated silicon area of a resource vector, mm² (Table I conversion).
    #[must_use]
    pub fn silicon_area_mm2(&self, usage: &ResourceUsage) -> f64 {
        usage.clbs as f64 * self.clb_area_mm2
            + usage.brams as f64 * self.bram_area_mm2
            + usage.dsps as f64 * self.dsp_area_mm2
    }

    /// Total CLB-equivalents of the device (Table I reports 64,922).
    #[must_use]
    pub fn total_clb_equivalents(&self) -> u64 {
        self.budget().clb_equivalents()
    }

    /// Total silicon area of the device, mm²: the sum of its tiles, 285.29.
    /// Table I's 286 is its CLB-equivalents times a CLB's area, which
    /// counts a BRAM as 6 CLBs where its tile is 5.91.
    #[must_use]
    pub fn total_area_mm2(&self) -> f64 {
        self.silicon_area_mm2(&self.budget())
    }

    /// Returns `true` when `usage` fits the device budget.
    #[must_use]
    pub fn fits(&self, usage: &ResourceUsage) -> bool {
        usage.clbs <= self.clb_budget
            && usage.brams <= self.bram_budget
            && usage.dsps <= self.dsp_budget
    }

    /// The whole device as a resource vector.
    fn budget(&self) -> ResourceUsage {
        ResourceUsage {
            clbs: self.clb_budget,
            brams: self.bram_budget,
            dsps: self.dsp_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_match_paper() {
        let clb_eq = DEVICE.total_clb_equivalents();
        assert!(
            (64_900..=65_000).contains(&clb_eq),
            "Table I says 64,922 CLB-equivalents, got {clb_eq}"
        );
        let area = DEVICE.total_area_mm2();
        assert!(
            (283.0..=289.0).contains(&area),
            "Table I says 286 mm^2, got {area}"
        );
    }

    #[test]
    fn table1_relative_areas() {
        assert!((DEVICE.bram_area_mm2 / DEVICE.clb_area_mm2 - 6.0).abs() < 0.1);
        assert!((DEVICE.dsp_area_mm2 / DEVICE.clb_area_mm2 - 10.0).abs() < 0.1);
    }

    #[test]
    fn resource_addition_is_componentwise() {
        let total = ResourceUsage {
            clbs: 1,
            brams: 2,
            dsps: 3,
        } + ResourceUsage {
            clbs: 10,
            brams: 20,
            dsps: 30,
        };
        assert_eq!(
            total,
            ResourceUsage {
                clbs: 11,
                brams: 22,
                dsps: 33
            }
        );
    }

    #[test]
    fn fits_checks_every_budget() {
        assert!(DEVICE.fits(&ResourceUsage {
            clbs: 1000,
            brams: 10,
            dsps: 10
        }));
        assert!(!DEVICE.fits(&ResourceUsage {
            clbs: 40_000,
            brams: 0,
            dsps: 0
        }));
        assert!(!DEVICE.fits(&ResourceUsage {
            clbs: 0,
            brams: 1000,
            dsps: 0
        }));
        assert!(!DEVICE.fits(&ResourceUsage {
            clbs: 0,
            brams: 0,
            dsps: 3000
        }));
    }

    #[test]
    fn area_is_linear_in_resources() {
        let one = ResourceUsage {
            clbs: 100,
            brams: 10,
            dsps: 10,
        };
        let two = one + one;
        let a1 = DEVICE.silicon_area_mm2(&one);
        let a2 = DEVICE.silicon_area_mm2(&two);
        assert!((a2 - 2.0 * a1).abs() < 1e-9);
    }
}
