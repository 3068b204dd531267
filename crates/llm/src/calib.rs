//! Calibration anchors: the paper's published results, Tables 5 (hard),
//! 6 (easy) and 7 (MCQ).
//!
//! Each entry is `(accuracy A, miss rate M)` for one (model, taxonomy)
//! cell; rows follow [`ModelId::ALL`], columns follow
//! [`TaxonomyKind::ALL`] (eBay, Amazon, Google, Schema, ACM-CCS,
//! GeoNames, Glottolog, ICD-10-CM, OAE, NCBI).
//!
//! These tables serve two roles:
//!
//! 1. they anchor the simulated models' knowledge (the closest synthetic
//!    equivalent available for closed-weight LLMs), and
//! 2. they are the *expected* values that EXPERIMENTS.md compares
//!    measured reproductions against.

use crate::profile::ModelId;
use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;

/// `(accuracy, miss rate)` for one table cell.
pub type Anchor = (f64, f64);

/// Table 5: overall results on **hard** datasets.
pub const HARD: [[Anchor; 10]; 18] = [
    // GPT-3.5
    [(0.891, 0.021), (0.724, 0.138), (0.814, 0.042), (0.591, 0.324), (0.617, 0.150), (0.598, 0.057), (0.510, 0.298), (0.838, 0.063), (0.767, 0.144), (0.495, 0.301)],
    // GPT-4
    [(0.921, 0.003), (0.806, 0.051), (0.857, 0.011), (0.734, 0.193), (0.708, 0.017), (0.652, 0.002), (0.626, 0.154), (0.917, 0.001), (0.822, 0.035), (0.653, 0.132)],
    // Claude-3
    [(0.901, 0.033), (0.668, 0.231), (0.781, 0.090), (0.315, 0.663), (0.624, 0.111), (0.679, 0.138), (0.244, 0.714), (0.871, 0.041), (0.766, 0.161), (0.449, 0.456)],
    // Llama-2-7B
    [(0.201, 0.789), (0.052, 0.946), (0.092, 0.903), (0.000, 1.000), (0.032, 0.963), (0.006, 0.994), (0.001, 0.999), (0.114, 0.871), (0.004, 0.996), (0.000, 1.000)],
    // Llama-2-13B
    [(0.898, 0.000), (0.766, 0.002), (0.822, 0.003), (0.712, 0.010), (0.658, 0.011), (0.543, 0.006), (0.192, 0.681), (0.811, 0.027), (0.757, 0.078), (0.457, 0.252)],
    // Llama-2-70B
    [(0.899, 0.000), (0.806, 0.000), (0.836, 0.000), (0.616, 0.000), (0.687, 0.003), (0.553, 0.000), (0.305, 0.467), (0.826, 0.023), (0.747, 0.017), (0.535, 0.130)],
    // Llama-3-8B
    [(0.880, 0.000), (0.789, 0.000), (0.774, 0.000), (0.788, 0.000), (0.664, 0.000), (0.663, 0.000), (0.608, 0.078), (0.878, 0.000), (0.851, 0.000), (0.691, 0.011)],
    // Llama-3-70B
    [(0.904, 0.000), (0.770, 0.050), (0.824, 0.011), (0.419, 0.531), (0.705, 0.048), (0.693, 0.073), (0.388, 0.474), (0.881, 0.003), (0.800, 0.088), (0.551, 0.231)],
    // Flan-T5-3B
    [(0.899, 0.000), (0.781, 0.000), (0.835, 0.000), (0.743, 0.000), (0.672, 0.000), (0.539, 0.000), (0.584, 0.000), (0.767, 0.000), (0.838, 0.000), (0.593, 0.000)],
    // Flan-T5-11B
    [(0.919, 0.000), (0.793, 0.000), (0.864, 0.000), (0.786, 0.000), (0.698, 0.000), (0.520, 0.000), (0.589, 0.000), (0.842, 0.000), (0.856, 0.000), (0.633, 0.000)],
    // Falcon-7B
    [(0.597, 0.000), (0.547, 0.000), (0.556, 0.000), (0.501, 0.000), (0.550, 0.000), (0.537, 0.000), (0.503, 0.000), (0.636, 0.000), (0.497, 0.000), (0.587, 0.000)],
    // Falcon-40B
    [(0.434, 0.515), (0.253, 0.711), (0.348, 0.591), (0.013, 0.987), (0.043, 0.950), (0.108, 0.858), (0.021, 0.975), (0.454, 0.489), (0.007, 0.991), (0.013, 0.986)],
    // Vicuna-7B
    [(0.827, 0.000), (0.725, 0.000), (0.728, 0.000), (0.699, 0.000), (0.599, 0.000), (0.705, 0.000), (0.637, 0.000), (0.757, 0.000), (0.813, 0.000), (0.609, 0.002)],
    // Vicuna-13B
    [(0.690, 0.007), (0.625, 0.037), (0.601, 0.022), (0.581, 0.093), (0.527, 0.023), (0.492, 0.114), (0.301, 0.557), (0.666, 0.077), (0.424, 0.450), (0.350, 0.460)],
    // Vicuna-33B
    [(0.759, 0.000), (0.713, 0.000), (0.682, 0.000), (0.728, 0.020), (0.591, 0.000), (0.728, 0.000), (0.496, 0.277), (0.772, 0.001), (0.820, 0.002), (0.522, 0.187)],
    // Mistral
    [(0.583, 0.262), (0.474, 0.361), (0.532, 0.230), (0.214, 0.750), (0.433, 0.308), (0.240, 0.691), (0.146, 0.818), (0.478, 0.410), (0.405, 0.528), (0.176, 0.772)],
    // Mixtral
    [(0.805, 0.000), (0.739, 0.000), (0.738, 0.000), (0.707, 0.017), (0.618, 0.111), (0.604, 0.041), (0.394, 0.450), (0.840, 0.018), (0.789, 0.052), (0.482, 0.313)],
    // LLMs4OL
    [(0.904, 0.000), (0.849, 0.000), (0.860, 0.000), (0.912, 0.000), (0.753, 0.000), (0.677, 0.000), (0.711, 0.000), (0.891, 0.000), (0.906, 0.000), (0.725, 0.000)],
];

/// Table 6: overall results on **easy** datasets.
pub const EASY: [[Anchor; 10]; 18] = [
    // GPT-3.5
    [(0.921, 0.026), (0.775, 0.148), (0.920, 0.045), (0.593, 0.334), (0.711, 0.169), (0.598, 0.057), (0.563, 0.310), (0.851, 0.099), (0.778, 0.167), (0.529, 0.354)],
    // GPT-4
    [(0.946, 0.002), (0.879, 0.044), (0.962, 0.008), (0.773, 0.183), (0.860, 0.014), (0.648, 0.002), (0.710, 0.141), (0.964, 0.001), (0.866, 0.032), (0.789, 0.089)],
    // Claude-3
    [(0.932, 0.018), (0.758, 0.199), (0.910, 0.068), (0.331, 0.664), (0.784, 0.121), (0.679, 0.138), (0.256, 0.736), (0.953, 0.021), (0.869, 0.095), (0.486, 0.494)],
    // Llama-2-7B
    [(0.196, 0.804), (0.053, 0.946), (0.090, 0.908), (0.000, 1.000), (0.032, 0.967), (0.006, 0.994), (0.001, 0.999), (0.115, 0.880), (0.004, 0.996), (0.000, 1.000)],
    // Llama-2-13B
    [(0.926, 0.000), (0.798, 0.012), (0.886, 0.005), (0.727, 0.020), (0.789, 0.024), (0.543, 0.006), (0.149, 0.733), (0.815, 0.077), (0.714, 0.145), (0.411, 0.310)],
    // Llama-2-70B
    [(0.931, 0.000), (0.865, 0.001), (0.945, 0.000), (0.616, 0.001), (0.817, 0.004), (0.553, 0.000), (0.292, 0.487), (0.884, 0.040), (0.761, 0.022), (0.536, 0.138)],
    // Llama-3-8B
    [(0.931, 0.000), (0.871, 0.000), (0.940, 0.000), (0.819, 0.000), (0.829, 0.000), (0.663, 0.000), (0.665, 0.086), (0.915, 0.020), (0.893, 0.000), (0.785, 0.015)],
    // Llama-3-70B
    [(0.939, 0.005), (0.797, 0.103), (0.927, 0.039), (0.376, 0.602), (0.787, 0.104), (0.693, 0.073), (0.354, 0.591), (0.899, 0.055), (0.804, 0.139), (0.514, 0.399)],
    // Flan-T5-3B
    [(0.926, 0.000), (0.826, 0.000), (0.934, 0.000), (0.751, 0.000), (0.732, 0.000), (0.539, 0.000), (0.588, 0.000), (0.811, 0.000), (0.851, 0.000), (0.605, 0.000)],
    // Flan-T5-11B
    [(0.944, 0.000), (0.834, 0.000), (0.944, 0.000), (0.804, 0.000), (0.737, 0.000), (0.520, 0.000), (0.595, 0.000), (0.871, 0.000), (0.875, 0.000), (0.643, 0.000)],
    // Falcon-7B
    [(0.607, 0.000), (0.553, 0.000), (0.574, 0.000), (0.504, 0.000), (0.577, 0.000), (0.533, 0.000), (0.504, 0.000), (0.677, 0.000), (0.495, 0.000), (0.618, 0.000)],
    // Falcon-40B
    [(0.434, 0.541), (0.255, 0.732), (0.357, 0.636), (0.013, 0.987), (0.042, 0.957), (0.106, 0.860), (0.021, 0.977), (0.449, 0.536), (0.005, 0.994), (0.012, 0.987)],
    // Vicuna-7B
    [(0.919, 0.000), (0.814, 0.000), (0.915, 0.000), (0.723, 0.000), (0.748, 0.000), (0.705, 0.000), (0.671, 0.000), (0.877, 0.000), (0.878, 0.000), (0.676, 0.002)],
    // Vicuna-13B
    [(0.812, 0.035), (0.708, 0.115), (0.741, 0.084), (0.580, 0.133), (0.575, 0.059), (0.492, 0.114), (0.297, 0.620), (0.668, 0.234), (0.409, 0.526), (0.347, 0.530)],
    // Vicuna-33B
    [(0.871, 0.000), (0.839, 0.000), (0.857, 0.000), (0.792, 0.010), (0.737, 0.000), (0.728, 0.000), (0.536, 0.272), (0.887, 0.016), (0.887, 0.001), (0.601, 0.216)],
    // Mistral
    [(0.571, 0.347), (0.460, 0.480), (0.509, 0.433), (0.211, 0.774), (0.428, 0.471), (0.240, 0.691), (0.146, 0.842), (0.467, 0.491), (0.405, 0.565), (0.176, 0.811)],
    // Mixtral
    [(0.898, 0.005), (0.829, 0.002), (0.894, 0.002), (0.745, 0.024), (0.656, 0.202), (0.604, 0.041), (0.369, 0.526), (0.873, 0.048), (0.809, 0.066), (0.451, 0.465)],
    // LLMs4OL
    [(0.929, 0.000), (0.890, 0.000), (0.908, 0.000), (0.932, 0.000), (0.844, 0.000), (0.677, 0.000), (0.739, 0.000), (0.935, 0.000), (0.933, 0.000), (0.748, 0.000)],
];

/// Table 7: overall results on **MCQ** datasets.
pub const MCQ: [[Anchor; 10]; 18] = [
    // GPT-3.5
    [(0.931, 0.013), (0.782, 0.067), (0.894, 0.025), (0.842, 0.040), (0.709, 0.044), (0.504, 0.053), (0.534, 0.254), (0.915, 0.023), (0.824, 0.038), (0.531, 0.209)],
    // GPT-4
    [(0.947, 0.000), (0.849, 0.027), (0.932, 0.001), (0.907, 0.000), (0.790, 0.001), (0.695, 0.000), (0.683, 0.003), (0.964, 0.000), (0.900, 0.004), (0.701, 0.009)],
    // Claude-3
    [(0.947, 0.000), (0.830, 0.043), (0.922, 0.003), (0.894, 0.020), (0.741, 0.022), (0.638, 0.004), (0.497, 0.401), (0.962, 0.004), (0.885, 0.032), (0.577, 0.286)],
    // Llama-2-7B
    [(0.488, 0.000), (0.399, 0.005), (0.393, 0.002), (0.304, 0.008), (0.259, 0.003), (0.305, 0.004), (0.313, 0.089), (0.406, 0.004), (0.283, 0.035), (0.271, 0.002)],
    // Llama-2-13B
    [(0.680, 0.003), (0.551, 0.026), (0.547, 0.037), (0.448, 0.070), (0.450, 0.006), (0.313, 0.016), (0.305, 0.072), (0.695, 0.015), (0.429, 0.088), (0.368, 0.001)],
    // Llama-2-70B
    [(0.881, 0.000), (0.704, 0.004), (0.794, 0.000), (0.604, 0.004), (0.556, 0.001), (0.350, 0.004), (0.352, 0.015), (0.776, 0.003), (0.613, 0.002), (0.359, 0.000)],
    // Llama-3-8B
    [(0.865, 0.000), (0.725, 0.017), (0.817, 0.006), (0.689, 0.014), (0.610, 0.006), (0.431, 0.000), (0.449, 0.101), (0.896, 0.001), (0.813, 0.001), (0.449, 0.003)],
    // Llama-3-70B
    [(0.941, 0.000), (0.790, 0.021), (0.898, 0.001), (0.805, 0.010), (0.729, 0.001), (0.598, 0.000), (0.634, 0.011), (0.956, 0.000), (0.905, 0.002), (0.650, 0.003)],
    // Flan-T5-3B
    [(0.898, 0.000), (0.756, 0.000), (0.878, 0.000), (0.799, 0.000), (0.664, 0.000), (0.455, 0.000), (0.506, 0.000), (0.836, 0.000), (0.777, 0.000), (0.524, 0.000)],
    // Flan-T5-11B
    [(0.904, 0.000), (0.805, 0.000), (0.902, 0.000), (0.841, 0.000), (0.696, 0.000), (0.634, 0.000), (0.583, 0.000), (0.877, 0.000), (0.817, 0.000), (0.550, 0.000)],
    // Falcon-7B
    [(0.261, 0.000), (0.259, 0.000), (0.275, 0.000), (0.233, 0.000), (0.240, 0.000), (0.256, 0.000), (0.260, 0.000), (0.254, 0.003), (0.262, 0.000), (0.255, 0.000)],
    // Falcon-40B
    [(0.578, 0.168), (0.465, 0.332), (0.525, 0.269), (0.368, 0.494), (0.389, 0.198), (0.305, 0.215), (0.036, 0.960), (0.711, 0.059), (0.168, 0.593), (0.117, 0.804)],
    // Vicuna-7B
    [(0.617, 0.000), (0.493, 0.001), (0.527, 0.000), (0.425, 0.000), (0.384, 0.000), (0.313, 0.008), (0.409, 0.017), (0.528, 0.011), (0.473, 0.166), (0.392, 0.005)],
    // Vicuna-13B
    [(0.838, 0.013), (0.636, 0.100), (0.747, 0.061), (0.523, 0.137), (0.543, 0.079), (0.317, 0.146), (0.205, 0.664), (0.833, 0.045), (0.691, 0.196), (0.362, 0.375)],
    // Vicuna-33B
    [(0.327, 0.000), (0.307, 0.000), (0.338, 0.000), (0.266, 0.000), (0.261, 0.000), (0.264, 0.000), (0.253, 0.000), (0.401, 0.001), (0.285, 0.009), (0.252, 0.000)],
    // Mistral
    [(0.828, 0.000), (0.666, 0.014), (0.713, 0.006), (0.692, 0.006), (0.582, 0.003), (0.415, 0.000), (0.436, 0.179), (0.765, 0.008), (0.768, 0.004), (0.519, 0.044)],
    // Mixtral
    [(0.924, 0.000), (0.768, 0.040), (0.876, 0.008), (0.775, 0.038), (0.707, 0.008), (0.537, 0.020), (0.611, 0.089), (0.923, 0.005), (0.797, 0.003), (0.634, 0.067)],
    // LLMs4OL
    [(0.954, 0.000), (0.851, 0.000), (0.924, 0.000), (0.921, 0.000), (0.796, 0.000), (0.683, 0.000), (0.660, 0.000), (0.921, 0.000), (0.941, 0.000), (0.650, 0.000)],
];

/// The `(A, M)` anchor for one (model, taxonomy, flavor) cell.
pub fn anchor(model: ModelId, kind: TaxonomyKind, flavor: QuestionDataset) -> Anchor {
    let col = TaxonomyKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL covers every kind");
    let table = match flavor {
        QuestionDataset::Hard => &HARD,
        QuestionDataset::Easy => &EASY,
        QuestionDataset::Mcq => &MCQ,
    };
    table[model.row()][col]
}

/// Macro-average accuracy across the ten taxonomies for a model/flavor.
pub fn mean_accuracy(model: ModelId, flavor: QuestionDataset) -> f64 {
    TaxonomyKind::ALL
        .iter()
        .map(|&k| anchor(model, k, flavor).0)
        .sum::<f64>()
        / TaxonomyKind::ALL.len() as f64
}

/// Macro-average miss rate across the ten taxonomies.
pub fn mean_miss(model: ModelId, flavor: QuestionDataset) -> f64 {
    TaxonomyKind::ALL
        .iter()
        .map(|&k| anchor(model, k, flavor).1)
        .sum::<f64>()
        / TaxonomyKind::ALL.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_probabilities_and_consistent() {
        for table in [&HARD, &EASY, &MCQ] {
            for row in table.iter() {
                for &(a, m) in row {
                    assert!((0.0..=1.0).contains(&a), "accuracy {a}");
                    assert!((0.0..=1.0).contains(&m), "miss {m}");
                    assert!(a + m <= 1.0 + 1e-9, "A + M = {} exceeds 1", a + m);
                }
            }
        }
    }

    /// Digest of every anchor's `f64` bits: HARD, EASY, then MCQ, row
    /// by row, `A` before `M`. The anchors are both the simulated
    /// models' targets and the paper values the fidelity checks compare
    /// against, so a mistyped cell moves both sides alike and only this
    /// pin sees it. Re-pin only when a cell is corrected against the
    /// paper, and say which.
    #[test]
    fn anchors_digest_is_pinned() {
        use taxoglimpse_synth::rng::{hash_str, mix64};
        let mut h = hash_str(0, "calib anchors");
        for table in [&HARD, &EASY, &MCQ] {
            for &(a, m) in table.iter().flatten() {
                h = mix64(mix64(h ^ a.to_bits()) ^ m.to_bits());
            }
        }
        assert_eq!(format!("{h:016x}"), "05d634682bad43b8", "a calibration anchor changed");
    }

    #[test]
    fn spot_check_paper_cells() {
        // GPT-4 hard: eBay 0.921/0.003, NCBI 0.653/0.132.
        assert_eq!(anchor(ModelId::Gpt4, TaxonomyKind::Ebay, QuestionDataset::Hard), (0.921, 0.003));
        assert_eq!(anchor(ModelId::Gpt4, TaxonomyKind::Ncbi, QuestionDataset::Hard), (0.653, 0.132));
        // Llama-2-7B easy Schema: 0.000/1.000.
        assert_eq!(anchor(ModelId::Llama2_7b, TaxonomyKind::Schema, QuestionDataset::Easy), (0.000, 1.000));
        // LLMs4OL MCQ eBay 0.954/0.
        assert_eq!(anchor(ModelId::Llms4Ol, TaxonomyKind::Ebay, QuestionDataset::Mcq), (0.954, 0.000));
    }

    /// Finding 1: common domains beat specialized ones for the strong
    /// models, on the hard datasets.
    #[test]
    fn finding_1_common_beats_specialized() {
        for model in [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_70b] {
            let ebay = anchor(model, TaxonomyKind::Ebay, QuestionDataset::Hard).0;
            let glotto = anchor(model, TaxonomyKind::Glottolog, QuestionDataset::Hard).0;
            let ncbi = anchor(model, TaxonomyKind::Ncbi, QuestionDataset::Hard).0;
            assert!(ebay > glotto, "{model}");
            assert!(ebay > ncbi, "{model}");
        }
    }

    /// Finding 3: LLMs4OL beats its Flan-T5-3B backbone; the paper cites
    /// +12.9% (easy/hard) and +17.0% (MCQ) macro-average uplifts.
    #[test]
    fn finding_3_llms4ol_uplift() {
        for (flavor, expected) in [
            (QuestionDataset::Easy, 0.129),
            (QuestionDataset::Hard, 0.129),
            (QuestionDataset::Mcq, 0.170),
        ] {
            let tuned = mean_accuracy(ModelId::Llms4Ol, flavor);
            let backbone = mean_accuracy(ModelId::FlanT5_3b, flavor);
            let uplift = tuned / backbone - 1.0;
            assert!(
                (uplift - expected).abs() < 0.04,
                "{flavor}: uplift {uplift:.3} vs paper {expected}"
            );
        }
    }

    /// §4.1: Llama-3-70B's macro miss rate drops from 0.151 (hard) to
    /// 0.005 (MCQ) and its accuracy rises from 0.694 to 0.791.
    #[test]
    fn mcq_options_suppress_misses() {
        let hard_m = mean_miss(ModelId::Llama3_70b, QuestionDataset::Hard);
        let mcq_m = mean_miss(ModelId::Llama3_70b, QuestionDataset::Mcq);
        assert!((hard_m - 0.151).abs() < 0.005, "hard miss {hard_m}");
        assert!((mcq_m - 0.005).abs() < 0.003, "mcq miss {mcq_m}");
        let hard_a = mean_accuracy(ModelId::Llama3_70b, QuestionDataset::Hard);
        let mcq_a = mean_accuracy(ModelId::Llama3_70b, QuestionDataset::Mcq);
        assert!((hard_a - 0.694).abs() < 0.005);
        assert!((mcq_a - 0.791).abs() < 0.005);
    }

    /// GeoNames has a single child level whose negatives are drawn from
    /// the same root pool either way, so its easy and hard datasets
    /// nearly coincide — the paper's A/M cells agree to within half a
    /// point across models.
    #[test]
    fn geonames_easy_matches_hard_closely() {
        for model in ModelId::ALL {
            let (ae, me) = anchor(model, TaxonomyKind::GeoNames, QuestionDataset::Easy);
            let (ah, mh) = anchor(model, TaxonomyKind::GeoNames, QuestionDataset::Hard);
            assert!((ae - ah).abs() <= 0.005, "{model}: A {ae} vs {ah}");
            assert!((me - mh).abs() <= 0.005, "{model}: M {me} vs {mh}");
        }
    }
}
