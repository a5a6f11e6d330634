//! Systematic Reed–Solomon erasure coding over GF(256).
//!
//! The paper's source groups the stream into windows of 110 packets of which
//! 9 are FEC parity, using a *systematic* code: the first 101 packets are the
//! original data, and any 101 of the 110 suffice to reconstruct the window.
//! This crate implements that code for real — finite-field arithmetic
//! ([`gf`]), matrix algebra ([`matrix`]), the erasure codec ([`ReedSolomon`])
//! and the window-level convenience wrappers ([`WindowEncoder`] /
//! [`WindowDecoder`]) used by the streaming layer and the UDP runtime.
//!
//! # Examples
//!
//! Encode four data shards with two parity shards and recover from the loss
//! of any two:
//!
//! ```
//! use gossip_fec::ReedSolomon;
//!
//! # fn main() -> Result<(), gossip_fec::FecError> {
//! let rs = ReedSolomon::new(4, 2)?;
//! let data: Vec<Vec<u8>> = vec![vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]];
//! let parity = rs.encode(&data)?;
//!
//! // Lose shards 0 (data) and 4 (parity):
//! let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
//! shards.extend(parity.into_iter().map(Some));
//! shards[0] = None;
//! shards[4] = None;
//!
//! rs.reconstruct(&mut shards)?;
//! assert_eq!(shards[0].as_deref(), Some(&[1u8, 2][..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gf;
pub mod matrix;

mod rs;
mod window;

pub use rs::{FecError, ReedSolomon};
pub use window::{WindowDecoder, WindowEncoder, WindowParams};
