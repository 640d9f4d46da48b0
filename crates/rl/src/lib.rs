//! From-scratch REINFORCE LSTM controller for neural architecture search.
//!
//! The Codesign-NAS controller (§II-A of the DAC 2020 paper) is "a single
//! LSTM cell followed by a linear layer", sampled to produce a decision
//! sequence and updated with REINFORCE. This crate implements the whole
//! stack with no ML-framework dependency:
//!
//! * [`math`] — dense matrices with blocked, bit-exact kernels, masked
//!   softmax, entropy;
//! * [`nn`] — [`Linear`](nn::Linear), [`Embedding`](nn::Embedding) and
//!   [`LstmCell`](nn::LstmCell) with hand-written backward passes
//!   (finite-difference-checked in the tests);
//! * [`policy`] — autoregressive decoding over heterogeneous decision
//!   vocabularies with per-position logit masking;
//! * [`reinforce`] — the REINFORCE loop with EMA baseline and entropy bonus,
//!   stepped by Adam, the one optimizer (private `optim`), after a
//!   global-norm gradient clip;
//! * [`regress`] — the search-guidance surrogate's MLP regressor.
//!
//! The search half is one set of constants: Adam's β₁, β₂, ε and clip
//! norm and the regressor's width, epochs, learning rate and L2 penalty
//! are private `const`s. What a caller sets is the policy's shape
//! ([`PolicyConfig`]) and the three controller values of
//! [`ReinforceConfig`] (§III and §IV run different rates).
//!
//! # Examples
//!
//! Train the controller to prefer one specific sequence:
//!
//! ```
//! use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let policy = LstmPolicy::new(PolicyConfig::new(vec![3, 3]), &mut rng);
//! let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
//! for _ in 0..200 {
//!     let rollout = trainer.propose(&mut rng);
//!     let reward = f64::from(rollout.actions == vec![1, 1]);
//!     trainer.learn(&rollout, reward);
//! }
//! assert!(trainer.policy().log_prob(&[1, 1]).exp() > 0.2);
//! ```

pub mod math;
pub mod nn;
mod optim;
pub mod policy;
pub mod regress;
pub mod reinforce;

pub use policy::{LstmPolicy, PolicyConfig, Rollout};
pub use regress::MlpRegressor;
pub use reinforce::{ReinforceConfig, ReinforceTrainer};
