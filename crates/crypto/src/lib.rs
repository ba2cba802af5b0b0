//! # sofia-crypto — cryptographic substrate of the SOFIA reproduction
//!
//! Implements the exact primitives the paper builds on (README,
//! *Reproducing the paper*):
//!
//! * [`Rectangle`] — the RECTANGLE lightweight block cipher with a 64-bit
//!   block and an 80-bit key (reference \[35\] of the paper), 25 rounds;
//! * [`ctr`] — control-flow-bound CTR encryption of instruction words
//!   under counters `{ω ‖ prevPC ‖ PC}` ([`CounterBlock`], Algorithm 1);
//! * [`mac`] — fixed-length CBC-MAC over instruction words ([`Mac64`]);
//! * [`KeySet`] — the three device keys `k1`/`k2`/`k3` and the per-program
//!   [`Nonce`] ω.
//!
//! # Examples
//!
//! Encrypt a word on its CFG edge and verify the wrong edge garbles it:
//!
//! ```
//! use sofia_crypto::{ctr, CounterBlock, KeySet, Nonce};
//!
//! let keys = KeySet::from_seed(1).expand();
//! let nonce = Nonce::new(9);
//! let good = CounterBlock::from_edge(nonce, 0x100, 0x104);
//! let bad = CounterBlock::from_edge(nonce, 0x180, 0x104);
//!
//! let ciphertext = ctr::apply(&keys.ctr, good, 0x1234_5678);
//! assert_eq!(ctr::apply(&keys.ctr, good, ciphertext), 0x1234_5678);
//! assert_ne!(ctr::apply(&keys.ctr, bad, ciphertext), 0x1234_5678);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitslice;
pub mod ctr;
mod keys;
pub mod mac;
mod rectangle;
pub mod util;

pub use ctr::CounterBlock;
pub use keys::{ExpandedKeys, KeySet, Nonce};
pub use mac::Mac64;
pub use rectangle::{
    Key80, Rectangle, CYCLES_ITERATED, CYCLES_UNROLLED_13, ROUNDS, SBOX, SBOX_INV,
};
