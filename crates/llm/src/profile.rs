//! The eighteen evaluated models and their static properties.

use std::fmt;
use std::str::FromStr;

/// Model families (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// OpenAI GPTs (closed, API-only).
    Gpt,
    /// Anthropic Claude-3 (closed, API-only).
    Claude,
    /// Meta Llama-2 chat models.
    Llama2,
    /// Meta Llama-3 instruct models.
    Llama3,
    /// Google Flan-T5 encoder-decoders.
    FlanT5,
    /// TIIUAE Falcon instruct models.
    Falcon,
    /// LMSYS Vicuna (domain-agnostic fine-tuned Llama-2).
    Vicuna,
    /// Mistral AI dense + MoE models.
    Mistral,
    /// LLMs4OL: Flan-T5-3B + domain-specific instruction tuning.
    Llms4Ol,
}

/// The eighteen models, in the paper's table row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// GPT-3.5 (2023-05-15 API version).
    Gpt35,
    /// GPT-4 (2023-11-06-preview).
    Gpt4,
    /// Claude-3-Opus.
    Claude3,
    /// Llama-2-7B-chat.
    Llama2_7b,
    /// Llama-2-13B-chat.
    Llama2_13b,
    /// Llama-2-70B-chat.
    Llama2_70b,
    /// Llama-3-8B-instruct.
    Llama3_8b,
    /// Llama-3-70B-instruct.
    Llama3_70b,
    /// Flan-T5-3B (XL).
    FlanT5_3b,
    /// Flan-T5-11B (XXL).
    FlanT5_11b,
    /// Falcon-7B-Instruct.
    Falcon7b,
    /// Falcon-40B-Instruct.
    Falcon40b,
    /// Vicuna-7B-v1.5.
    Vicuna7b,
    /// Vicuna-13B-v1.5.
    Vicuna13b,
    /// Vicuna-33B-v1.3.
    Vicuna33b,
    /// Mistral-7B-Instruct.
    Mistral7b,
    /// Mixtral-8x7B-Instruct.
    Mixtral8x7b,
    /// LLMs4OL (instruction-tuned Flan-T5-3B).
    Llms4Ol,
}

impl ModelId {
    /// All eighteen models in table row order.
    pub const ALL: [ModelId; 18] = [
        ModelId::Gpt35,
        ModelId::Gpt4,
        ModelId::Claude3,
        ModelId::Llama2_7b,
        ModelId::Llama2_13b,
        ModelId::Llama2_70b,
        ModelId::Llama3_8b,
        ModelId::Llama3_70b,
        ModelId::FlanT5_3b,
        ModelId::FlanT5_11b,
        ModelId::Falcon7b,
        ModelId::Falcon40b,
        ModelId::Vicuna7b,
        ModelId::Vicuna13b,
        ModelId::Vicuna33b,
        ModelId::Mistral7b,
        ModelId::Mixtral8x7b,
        ModelId::Llms4Ol,
    ];

    /// Display name as printed in the paper's tables.
    pub fn display_name(self) -> &'static str {
        match self {
            ModelId::Gpt35 => "GPT-3.5",
            ModelId::Gpt4 => "GPT-4",
            ModelId::Claude3 => "Claude-3",
            ModelId::Llama2_7b => "Llama-2-7B",
            ModelId::Llama2_13b => "Llama-2-13B",
            ModelId::Llama2_70b => "Llama-2-70B",
            ModelId::Llama3_8b => "Llama-3-8B",
            ModelId::Llama3_70b => "Llama-3-70B",
            ModelId::FlanT5_3b => "Flan-T5-3B",
            ModelId::FlanT5_11b => "Flan-T5-11B",
            ModelId::Falcon7b => "Falcon-7B",
            ModelId::Falcon40b => "Falcon-40B",
            ModelId::Vicuna7b => "Vicuna-7B",
            ModelId::Vicuna13b => "Vicuna-13B",
            ModelId::Vicuna33b => "Vicuna-33B",
            ModelId::Mistral7b => "Mistral",
            ModelId::Mixtral8x7b => "Mixtral",
            ModelId::Llms4Ol => "LLMs4OL",
        }
    }

    /// Model family.
    pub fn family(self) -> ModelFamily {
        match self {
            ModelId::Gpt35 | ModelId::Gpt4 => ModelFamily::Gpt,
            ModelId::Claude3 => ModelFamily::Claude,
            ModelId::Llama2_7b | ModelId::Llama2_13b | ModelId::Llama2_70b => ModelFamily::Llama2,
            ModelId::Llama3_8b | ModelId::Llama3_70b => ModelFamily::Llama3,
            ModelId::FlanT5_3b | ModelId::FlanT5_11b => ModelFamily::FlanT5,
            ModelId::Falcon7b | ModelId::Falcon40b => ModelFamily::Falcon,
            ModelId::Vicuna7b | ModelId::Vicuna13b | ModelId::Vicuna33b => ModelFamily::Vicuna,
            ModelId::Mistral7b | ModelId::Mixtral8x7b => ModelFamily::Mistral,
            ModelId::Llms4Ol => ModelFamily::Llms4Ol,
        }
    }

    /// Nominal parameter count in billions (`None` for closed models
    /// that never disclosed sizes).
    pub fn params_billion(self) -> Option<f64> {
        match self {
            ModelId::Gpt35 | ModelId::Gpt4 | ModelId::Claude3 => None,
            ModelId::Llama2_7b => Some(7.0),
            ModelId::Llama2_13b => Some(13.0),
            ModelId::Llama2_70b => Some(70.0),
            ModelId::Llama3_8b => Some(8.0),
            ModelId::Llama3_70b => Some(70.0),
            ModelId::FlanT5_3b => Some(3.0),
            ModelId::FlanT5_11b => Some(11.0),
            ModelId::Falcon7b => Some(7.0),
            ModelId::Falcon40b => Some(40.0),
            ModelId::Vicuna7b => Some(7.0),
            ModelId::Vicuna13b => Some(13.0),
            ModelId::Vicuna33b => Some(33.0),
            ModelId::Mistral7b => Some(7.0),
            ModelId::Mixtral8x7b => Some(46.7),
            ModelId::Llms4Ol => Some(3.0),
        }
    }

    /// Row index in the paper's tables (and in [`crate::calib`]).
    pub fn row(self) -> usize {
        ModelId::ALL.iter().position(|&m| m == self).expect("ALL covers every variant")
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl FromStr for ModelId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelId::ALL
            .into_iter()
            .find(|m| m.display_name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown model {s:?}"))
    }
}

/// Static behavioural profile of one model: everything the simulator
/// needs besides the per-taxonomy calibration anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelProfile {
    /// Which model this is.
    pub id: ModelId,
    /// Root-to-leaf knowledge decline steepness in logit space
    /// (Finding 2). Larger = steeper decline.
    pub depth_slope: f64,
    /// Weight on surface-form (trigram) evidence. Models lean on name
    /// overlap when parametric knowledge runs out; this term produces
    /// the NCBI and OAE leaf-level uplifts.
    pub similarity_weight: f64,
    /// Multiplier applied to the miss rate under few-shot prompting
    /// (< 1: exemplars suppress abstention; Finding 4).
    pub fewshot_miss_factor: f64,
    /// Multiplier applied to the miss rate under CoT prompting
    /// (> 1 for abstention-prone models; ≈ 1 for the strongest).
    pub cot_miss_factor: f64,
    /// Additive shift to conditional accuracy (probability points) under
    /// few-shot prompting, for models that mainly benefit from seeing
    /// the format.
    pub fewshot_acc_shift: f64,
    /// Additive shift to conditional accuracy under CoT.
    pub cot_acc_shift: f64,
}

impl ModelProfile {
    /// The calibrated profile for `id`.
    pub fn of(id: ModelId) -> Self {
        use ModelId::*;
        // Temperament calibration, derived from §4.4's observations:
        // Llama-2-7B's misses collapse under few-shot and rise under CoT;
        // GPT-4 is stable under both; zero-miss models (Flan-T5s,
        // LLMs4OL, Falcon-7B) have nothing to suppress.
        let (fewshot_miss_factor, cot_miss_factor, fewshot_acc_shift, cot_acc_shift) = match id {
            Gpt4 => (0.8, 1.05, 0.005, -0.005),
            Gpt35 => (0.6, 1.15, 0.01, -0.01),
            Claude3 => (0.6, 1.1, 0.01, -0.01),
            Llama2_7b => (0.12, 1.4, 0.05, -0.02),
            Llama2_13b => (0.5, 1.3, 0.01, -0.02),
            Llama2_70b => (0.6, 1.2, 0.01, -0.01),
            Llama3_8b => (0.7, 1.1, 0.005, -0.01),
            Llama3_70b => (0.5, 1.2, 0.01, -0.01),
            FlanT5_3b | FlanT5_11b | Llms4Ol => (1.0, 1.0, 0.005, -0.005),
            Falcon7b => (1.0, 1.0, 0.0, 0.0),
            Falcon40b => (0.3, 1.3, 0.05, -0.03),
            Vicuna7b => (0.9, 1.1, 0.01, -0.01),
            Vicuna13b => (0.5, 1.3, 0.02, -0.02),
            Vicuna33b => (0.7, 1.2, 0.01, -0.01),
            Mistral7b => (0.4, 1.3, 0.02, -0.02),
            Mixtral8x7b => (0.6, 1.2, 0.01, -0.01),
        };
        // Depth slope: every model declines root-to-leaf; weaker models
        // decline faster. Similarity weight: all models exploit surface
        // overlap, instruction-tuned ones slightly less (they rely on
        // tuned knowledge).
        let (depth_slope, similarity_weight) = match id {
            Gpt4 | Claude3 => (0.9, 1.2),
            Gpt35 => (1.0, 1.2),
            Llama3_70b | Llama3_8b => (1.0, 1.3),
            Llama2_70b => (1.1, 1.3),
            Llama2_13b => (1.2, 1.3),
            Llama2_7b => (0.6, 0.8),
            FlanT5_3b | FlanT5_11b => (1.0, 1.2),
            Falcon7b => (0.1, 0.1), // near-coin-flip everywhere
            Falcon40b => (0.5, 0.6),
            Vicuna7b | Vicuna33b => (1.0, 1.2),
            Vicuna13b => (1.1, 1.0),
            Mistral7b => (0.9, 0.9),
            Mixtral8x7b => (1.0, 1.2),
            Llms4Ol => (0.6, 0.9), // tuning flattens the decline (Fig. 3)
        };
        ModelProfile {
            id,
            depth_slope,
            similarity_weight,
            fewshot_miss_factor,
            cot_miss_factor,
            fewshot_acc_shift,
            cot_acc_shift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_models() {
        assert_eq!(ModelId::ALL.len(), 18);
        let mut rows: Vec<usize> = ModelId::ALL.iter().map(|m| m.row()).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..18).collect::<Vec<_>>());
    }

    #[test]
    fn families_are_the_nine_series() {
        let mut fams: Vec<ModelFamily> = ModelId::ALL.iter().map(|m| m.family()).collect();
        fams.sort_by_key(|f| format!("{f:?}"));
        fams.dedup();
        assert_eq!(fams.len(), 9);
    }

    #[test]
    fn closed_models_hide_sizes() {
        assert!(ModelId::Gpt4.params_billion().is_none());
        assert_eq!(ModelId::Llama2_70b.params_billion(), Some(70.0));
    }

    #[test]
    fn from_str_round_trips() {
        for m in ModelId::ALL {
            assert_eq!(m.display_name().parse::<ModelId>().unwrap(), m);
        }
        assert!("GPT-5".parse::<ModelId>().is_err());
    }

    #[test]
    fn profiles_reflect_finding_4_temperaments() {
        let llama7 = ModelProfile::of(ModelId::Llama2_7b);
        let gpt4 = ModelProfile::of(ModelId::Gpt4);
        // Few-shot suppresses Llama-2-7B's abstention far more than GPT-4's.
        assert!(llama7.fewshot_miss_factor < gpt4.fewshot_miss_factor);
        // CoT inflates Llama-2-7B's misses more than GPT-4's.
        assert!(llama7.cot_miss_factor > gpt4.cot_miss_factor);
        // Zero-miss models have neutral miss factors.
        let flan = ModelProfile::of(ModelId::FlanT5_11b);
        assert_eq!(flan.fewshot_miss_factor, 1.0);
    }

    #[test]
    fn llms4ol_has_flattest_decline_among_tuned() {
        let tuned = ModelProfile::of(ModelId::Llms4Ol);
        let backbone = ModelProfile::of(ModelId::FlanT5_3b);
        assert!(tuned.depth_slope < backbone.depth_slope);
    }
}
