//! Sample-size computation (§2.2 "Question Generation").
//!
//! The paper samples entities from each taxonomy level "with a confidence
//! level of 95% and a margin of error of 5%" (via the Qualtrics
//! calculator). That is Cochran's formula with finite-population
//! correction:
//!
//! ```text
//! n0 = z² · p(1-p) / e²          (z = 1.96, p = 0.5, e = 0.05 → 384.16)
//! n  = n0 / (1 + (n0 - 1) / N)
//! ```
//!
//! For large levels this saturates at 384–385 samples; for small levels
//! it approaches the population size.

use taxoglimpse_synth::rng::{SliceRandom, SynthRng};

/// z-score for 95% confidence.
pub const Z_95: f64 = 1.959_963_985;
/// Default margin of error.
pub const MARGIN_5PCT: f64 = 0.05;

/// Cochran's n₀ (infinite population) for the given z and margin at
/// maximum variance (p = 0.5).
pub fn cochran_infinite(z: f64, margin: f64) -> f64 {
    z * z * 0.25 / (margin * margin)
}

/// Finite-population-corrected sample size for a population of `n`
/// entities at 95% confidence / 5% margin, rounded up.
///
/// Returns `n` itself for tiny populations (never more than the
/// population).
pub fn cochran_sample_size(population: usize) -> usize {
    cochran_sample_size_with(population, Z_95, MARGIN_5PCT)
}

/// Draw the §2.2 sample from `items` without replacement: shuffle them
/// with `rng`, then keep the first [`cochran_sample_size`] of them, or
/// the first `cap` if that is fewer.
pub fn cochran_sample<T>(items: &mut Vec<T>, rng: &mut SynthRng, cap: Option<usize>) {
    items.shuffle(rng);
    let n = cochran_sample_size(items.len());
    items.truncate(cap.map_or(n, |cap| n.min(cap)));
}

/// Like [`cochran_sample_size`] with explicit z and margin.
pub fn cochran_sample_size_with(population: usize, z: f64, margin: f64) -> usize {
    if population == 0 {
        return 0;
    }
    let n0 = cochran_infinite(z, margin);
    let n = n0 / (1.0 + (n0 - 1.0) / population as f64);
    (n.ceil() as usize).min(population)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_population_constant() {
        let n0 = cochran_infinite(Z_95, MARGIN_5PCT);
        assert!((n0 - 384.15).abs() < 0.1, "n0 = {n0}");
    }

    #[test]
    fn saturates_for_large_populations() {
        assert_eq!(cochran_sample_size(2_069_560), 385); // NCBI species level
        assert_eq!(cochran_sample_size(1_000_000), 384);
        assert_eq!(cochran_sample_size(100_000), 383);
    }

    /// Reproduce the per-level MCQ sample sizes of the paper's Table 4
    /// (MCQ count = the sample size; easy/hard = 2× it). The paper used
    /// the Qualtrics calculator, which rounds slightly differently for
    /// very small populations, so we allow ±3.
    #[test]
    fn reproduces_table_4_sample_sizes() {
        let cases: &[(usize, usize)] = &[
            // (population = level size, paper sample = MCQ count)
            (712, 250),    // Glottolog level 1
            (309, 172),    // NCBI level 1
            (507, 219),    // Amazon level 1
            (680, 246),    // GeoNames level 1
            (1854, 319),   // OAE level 1
            (3910, 350),   // Amazon level 2
            (110, 88),     // eBay level 1 (paper: 88)
            (2069560, 385),// NCBI species level (paper: 385)
            (7393, 366),   // Glottolog leaf level (paper: 366)
            (1349, 300),   // Google level 2
        ];
        for &(population, paper) in cases {
            let ours = cochran_sample_size(population);
            let diff = ours.abs_diff(paper);
            assert!(diff <= 3, "population {population}: ours {ours} vs paper {paper}");
        }
    }

    #[test]
    fn tiny_populations_clamp() {
        assert_eq!(cochran_sample_size(0), 0);
        assert_eq!(cochran_sample_size(1), 1);
        assert_eq!(cochran_sample_size(10), 10);
        assert_eq!(cochran_sample_size(30), 28);
    }

    #[test]
    fn monotone_in_population() {
        let mut prev = 0;
        for p in [1usize, 5, 10, 50, 100, 500, 1_000, 10_000, 100_000, 1_000_000] {
            let n = cochran_sample_size(p);
            assert!(n >= prev, "not monotone at {p}");
            prev = n;
        }
    }

    #[test]
    fn never_exceeds_population() {
        for p in 0..200 {
            assert!(cochran_sample_size(p) <= p);
        }
    }

    #[test]
    fn wider_margin_needs_fewer_samples() {
        let tight = cochran_sample_size_with(10_000, Z_95, 0.03);
        let loose = cochran_sample_size_with(10_000, Z_95, 0.10);
        assert!(tight > loose);
    }
}
