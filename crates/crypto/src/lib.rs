//! # medledger-crypto
//!
//! Cryptographic substrate for the MedLedger permissioned blockchain.
//!
//! Everything here is implemented from scratch on top of SHA-256
//! (FIPS 180-4), because the reproduction environment provides no
//! cryptography crates:
//!
//! * [`sha256()`] / [`Sha256`] — the hash function, one-shot and
//!   incremental (module [`mod@sha256`]).
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) used for PBFT-style message
//!   authenticators between known validators.
//! * [`merkle`] — binary Merkle trees with inclusion proofs, used for block
//!   transaction roots and contract state roots.
//! * [`sig`] — a publicly verifiable, N-time hash-based signature scheme
//!   (Lamport one-time signatures under a Merkle tree, a small Merkle
//!   Signature Scheme) used to sign ledger transactions.
//! * [`prg`] — a deterministic SHA-256 counter-mode byte stream used to
//!   derive keys and to make every experiment reproducible.
//! * [`mod@crc32`] — CRC-32 frame checksums for the durable-storage WAL
//!   and snapshot files (corruption detection, not authentication).
//! * [`par`] — the workspace's one data-parallel partition helper:
//!   contiguous chunks of a job list on scoped threads, results in input
//!   order.
//!
//! The design document (DESIGN.md §2) records why these primitives are a
//! faithful substitution for the paper's Ethereum accounts: only collision
//! resistance and unforgeability are load-bearing for the architecture.
//!
//! ## Speed without changing a byte
//!
//! Every signature, Merkle root and block hash is SHA-256 compressions,
//! so the compression function is the hot path of each commit:
//!
//! * **Backend dispatch.** [`Sha256`] compresses on the x86-64 SHA
//!   extensions when `is_x86_feature_detected!` reports them, and on the
//!   portable scalar function otherwise. The choice is made per `update`
//!   call, never per block, and nothing else selects it: there is no
//!   feature flag, environment variable or setting. A run of whole blocks
//!   stays in vector registers from first to last.
//! * **Midstate reuse.** The 512 Lamport secrets of one one-time key share
//!   their first 64 input bytes, so [`KeyPair`] compresses that block once
//!   per key and each secret costs one compression instead of two.
//! * **Parallel key derivation.** [`par`] splits a job list into
//!   contiguous chunks, runs the first on the caller's thread and the rest
//!   on scoped threads, and returns the results in input order, so the
//!   output is the same for any thread count. The host's parallelism is
//!   read once per process. [`KeyPair::from_seed`] derives its one-time
//!   key leaves on it (set-up and recovery), and the network fan-out pool
//!   re-exports it. Block transaction roots and signature checks stay
//!   one-by-one: no benchmark workload measured a gain from splitting
//!   them.
//! * **Slicing-by-8 CRC-32.** Recovery checksums every chain and WAL byte;
//!   [`mod@crc32`] folds eight bytes per table step, bit-identical to the
//!   byte-at-a-time loop.
//!
//! **Unsafe.** The crate has exactly one `unsafe` block: the call into the
//! SHA-extension compression, which is safe code compiled with extra
//! target features. Its single precondition, that the CPU has those
//! features, is established by the runtime check that alone selects that
//! backend (see the `// SAFETY:` comment in [`mod@sha256`]).
//! `unsafe_op_in_unsafe_fn` is denied so any future `unsafe fn` must
//! justify each operation on its own.
//!
//! **Why bit-identity matters.** A durable node persists only label seeds
//! and key watermarks, never key material. Recovery re-derives every key
//! pair and replays the chain through signature verification, so a key,
//! signature or digest that differed from the one written earlier would
//! make an existing store unrecoverable. Both backends are tested against
//! each other, and known-answer vectors (`tests/known_answers.rs`) pin the
//! bytes keys and signatures had before either optimisation.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod crc32;
pub mod hash;
pub mod hmac;
pub mod merkle;
pub mod par;
pub mod prg;
pub mod sha256;
pub mod sig;

pub use crc32::{crc32, Crc32};
pub use hash::Hash256;
pub use hmac::{hmac_sha256, HmacKey};
pub use merkle::{MerkleProof, MerkleTree};
pub use prg::Prg;
pub use sha256::{sha256, sha256_concat, Sha256};
pub use sig::{ack_message, fold_attestation, KeyPair, PublicKey, Signature, SigningError};
