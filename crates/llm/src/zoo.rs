//! The model zoo: the paper's eighteen models, ready to evaluate.

use crate::profile::ModelId;
use crate::simulate::SimulatedLlm;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registry of simulated models.
#[derive(Clone)]
pub struct ModelZoo {
    models: BTreeMap<ModelId, Arc<SimulatedLlm>>,
}

impl ModelZoo {
    /// The full eighteen-model zoo with the default simulation seed.
    pub fn default_zoo() -> Self {
        Self::with_seed(0x11AA)
    }

    /// The full zoo with an explicit simulation seed.
    pub fn with_seed(seed: u64) -> Self {
        let models = ModelId::ALL
            .into_iter()
            .map(|id| (id, Arc::new(SimulatedLlm::with_seed(id, seed))))
            .collect();
        ModelZoo { models }
    }

    /// Fetch one model.
    pub fn get(&self, id: ModelId) -> Option<Arc<SimulatedLlm>> {
        self.models.get(&id).cloned()
    }

    /// All models in table row order.
    pub fn all(&self) -> Vec<Arc<SimulatedLlm>> {
        ModelId::ALL
            .into_iter()
            .filter_map(|id| self.get(id))
            .collect()
    }

    /// The representative subset the paper uses for the Figure-4 radar
    /// charts: GPT-4, Flan-T5-11B, Llama-2-7B.
    pub fn figure4_representatives(&self) -> Vec<Arc<SimulatedLlm>> {
        [ModelId::Gpt4, ModelId::FlanT5_11b, ModelId::Llama2_7b]
            .into_iter()
            .filter_map(|id| self.get(id))
            .collect()
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the zoo is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Look up a model by its display name (case-insensitive).
    pub fn by_name(&self, name: &str) -> Option<Arc<SimulatedLlm>> {
        name.parse::<ModelId>().ok().and_then(|id| self.get(id))
    }
}

impl std::fmt::Debug for ModelZoo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelZoo").field("models", &self.models.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::model::LanguageModel;

    #[test]
    fn zoo_has_all_eighteen() {
        let zoo = ModelZoo::default_zoo();
        assert_eq!(zoo.len(), 18);
        assert!(!zoo.is_empty());
        assert_eq!(zoo.all().len(), 18);
        for id in ModelId::ALL {
            let m = zoo.get(id).unwrap();
            assert_eq!(m.name(), id.display_name());
        }
    }

    #[test]
    fn figure4_representatives_are_the_papers() {
        let zoo = ModelZoo::default_zoo();
        let reps = zoo.figure4_representatives();
        let names: Vec<&str> = reps.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["GPT-4", "Flan-T5-11B", "Llama-2-7B"]);
    }

    #[test]
    fn by_name_lookup() {
        let zoo = ModelZoo::default_zoo();
        assert_eq!(zoo.by_name("gpt-4").unwrap().id(), ModelId::Gpt4);
        assert_eq!(zoo.by_name("MISTRAL").unwrap().id(), ModelId::Mistral7b);
        assert!(zoo.by_name("gpt-5").is_none());
    }
}
