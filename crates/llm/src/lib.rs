//! # taxoglimpse-llm
//!
//! The simulated-LLM substrate standing in for the paper's eighteen
//! closed- and open-weight models (GPTs, Claude-3, Llama-2/3, Flan-T5,
//! Falcon, Vicuna, Mistral/Mixtral, LLMs4OL), which cannot be queried in
//! this offline environment.
//!
//! Each model is a [`profile::ModelProfile`] whose *knowledge model*
//! ([`knowledge`]) anchors on the aggregate accuracy/miss rates the
//! paper published (Tables 5–7, embedded in [`calib`]) and modulates
//! them mechanistically per question:
//!
//! * **depth** — conditional accuracy declines from root to leaf
//!   (Finding 2),
//! * **surface similarity** — character-trigram overlap between the
//!   child and candidate names shifts the answer logit, which produces
//!   the NCBI species→genus uplift and the OAE behaviour without any
//!   per-level hardcoding; the overlap is read from the question's
//!   `Surface` record, computed once per question in `core`,
//! * **prompting setting** — few-shot suppresses abstention, CoT
//!   inflates it for abstention-prone models (Finding 4),
//! * **question type** — TF vs MCQ anchors differ per the tables.
//!
//! Answers are emitted as free natural-language text ([`respond`]) in
//! model-family-specific phrasing, and are deterministic: the same
//! (model, question, setting) always yields the same response.
//!
//! [`scalability`] models Figure 7 (GPU RAM and per-question latency).

#![warn(missing_docs)]

pub mod api;
pub mod baselines;
pub mod calib;
pub mod faults;
pub mod knowledge;
pub mod profile;
pub mod respond;
pub mod scalability;
pub mod simulate;
pub mod zoo;

pub use faults::{FaultInjector, FaultPlan, FaultStats};
pub use profile::{ModelFamily, ModelId, ModelProfile};
pub use simulate::SimulatedLlm;
pub use zoo::ModelZoo;
