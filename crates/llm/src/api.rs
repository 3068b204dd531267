//! Serving prices: dollars per token and seconds per delivery.
//!
//! The paper accessed GPTs "through Azure OpenAI API and the OpenAI
//! official API" and deployed open models on 8×RTX-3090 + 4×A100. This
//! module prices that serving reality; the failures and retries live in
//! the one tower every workload uses (`FaultInjector` under the
//! runner's `ResilienceSession`), and the tokens come from
//! `SimulatedLlm::usage`.

use crate::profile::ModelId;
use crate::scalability;

/// Flat round-trip latency of one delivery to an API-only (closed)
/// model, seconds.
const API_ROUND_TRIP_S: f64 = 0.8;

/// Pricing per million tokens (input, output) in USD. Closed-model
/// prices reflect the era of the paper's experiments (2024); open
/// models are priced at 0 (self-hosted — the cost shows up as GPU time
/// instead).
pub fn price_per_mtok(model: ModelId) -> (f64, f64) {
    match model {
        ModelId::Gpt4 => (30.0, 60.0),
        ModelId::Gpt35 => (0.5, 1.5),
        ModelId::Claude3 => (15.0, 75.0),
        _ => (0.0, 0.0),
    }
}

/// Dollars `model` bills for `prompt_tokens` in and `completion_tokens`
/// out.
pub fn cost_usd(model: ModelId, prompt_tokens: u64, completion_tokens: u64) -> f64 {
    let (pin, pout) = price_per_mtok(model);
    (prompt_tokens as f64 * pin + completion_tokens as f64 * pout) / 1e6
}

/// Seconds one delivery takes: the Figure 7 per-question latency for
/// self-hosted models, a flat API round trip for closed ones.
pub fn seconds_per_delivery(model: ModelId) -> f64 {
    match scalability::footprint(model) {
        Some(f) => f.seconds_per_question,
        None => API_ROUND_TRIP_S,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_estimation_matches_prices() {
        // 1000 questions × (30 in + 5 out) tokens at $30/$60 per Mtok.
        let expected = 1000.0 * (30.0 * 30.0 + 5.0 * 60.0) / 1e6;
        assert!((cost_usd(ModelId::Gpt4, 30_000, 5_000) - expected).abs() < 1e-9);
        for closed in [ModelId::Gpt35, ModelId::Claude3] {
            assert!(cost_usd(closed, 30_000, 5_000) > 0.0, "{closed} is not free");
        }
    }

    #[test]
    fn open_models_cost_nothing_but_take_gpu_time() {
        for open in [ModelId::FlanT5_3b, ModelId::Llama2_70b] {
            assert_eq!(cost_usd(open, 30_000, 5_000), 0.0);
            let footprint = scalability::footprint(open).expect("open models have a footprint");
            assert_eq!(seconds_per_delivery(open), footprint.seconds_per_question);
        }
        // Closed models have no Figure 7 footprint: one API round trip.
        assert!(scalability::footprint(ModelId::Gpt4).is_none());
        assert_eq!(seconds_per_delivery(ModelId::Gpt4), API_ROUND_TRIP_S);
    }
}
